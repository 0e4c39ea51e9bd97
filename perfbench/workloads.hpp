// The benchmark's three workloads, built from the paper's Figures 9 and 11.
//
// Each workload is one exp::Runner grid whose wall time a different layer
// owns (README.md has the table and the shares measured when the workloads
// were chosen):
//   packet-fig9 — Fig 9's permutation grid on the packet engine: event
//                 dispatch and TCP/MPTCP transport;
//   fsim-paper  — the same grid at paper scale on the fluid engine: cold
//                 Yen KSP route compilation, then water-fill;
//   packet-rpc  — Fig 11's closed-loop 100 kB RPCs: per-flow setup and
//                 loss recovery on tens of thousands of short flows.
//
// Every input is a pure function of the seed, which draws the traffic; the
// networks are fixed Jellyfish instances. Untraced, packet-fig9 and
// fsim-paper run the runner's built-in engines. Traced, every cell runs a
// trial body here that calls the same public functions the engine calls,
// in the same order, with a span around each call.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kPacketFig9, kFsimPaper, kPacketRpc };

[[nodiscard]] std::optional<Workload> workload_from_string(
    std::string_view name);
[[nodiscard]] const char* to_string(Workload workload);

/// kFull is the timed configuration; kTiny shrinks every grid so the smoke
/// test runs each workload (traced and untraced) in seconds.
enum class Scale : std::uint8_t { kFull, kTiny };

/// The P-Net types (parallel_s); the other two are serial (serial_s).
[[nodiscard]] bool is_parallel(pnet::topo::NetworkType type);

/// Runner worker count of every workload: fixed, so the amount of
/// parallelism never depends on the host.
inline constexpr int kRunnerThreads = 4;

/// One workload instance: the cells the runner receives plus what the
/// output checks need to know about them, index-aligned with `cells`.
struct Plan {
  std::vector<pnet::exp::Cell> cells;
  /// Flows (packet-fig9, fsim-paper) or RPCs (packet-rpc) each host of the
  /// cell's network sets out to complete.
  std::vector<std::uint64_t> per_host;
  /// Bytes one flow delivers (request plus response for an RPC).
  std::vector<std::uint64_t> unit_bytes;
  /// The cells run in consecutive exp::Runner::run calls, one per phase:
  /// phase i is cells [phase_end[i-1], phase_end[i]).
  std::vector<std::size_t> phase_end;
};

/// Builds the workload's grid for `seed`. With `log` set, every cell runs
/// a traced trial body that records its spans into `log` and its layer
/// counters into TrialResult::runtime (keys "sim.*" and "fsim.*").
[[nodiscard]] Plan make_plan(Workload workload, std::uint64_t seed,
                             Scale scale, SpanLog* log);

}  // namespace perfbench
