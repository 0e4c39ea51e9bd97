// Request decoding for pnet-serve: one newline-delimited JSON object per
// query, in exactly the shape exp::ExperimentSpec::to_json emits (so a
// client can replay a spec straight out of any bench report). The decoder
// walks the same field list as that writer (exp/spec.hpp), so every field
// the canonical JSON carries decodes. Two serve-only extensions:
//   * {"stats": true}            — the /stats query; returns the service's
//                                  telemetry snapshot instead of running
//                                  an experiment;
//   * "deadline_ms": <number>    — per-query wall-clock budget; the service
//                                  wires it into a util::CancelToken and a
//                                  blown budget returns a structured
//                                  timeout error.
//
// Decoding is strict: unknown fields anywhere are rejected (a misspelled
// knob must never silently fall back to its default — the Flags philosophy
// applied to the wire), enum strings must match their name tables,
// integer fields must hold integral in-range numbers, times must lie in
// [0, 1e15] ps where their microsecond form is exact, and the underlying
// parser already guarantees finiteness and bounded size. Every rejection
// is a RequestError that the service serializes as the {"ok":false,...}
// reply.
#pragma once

#include <string>
#include <string_view>

#include "exp/spec.hpp"
#include "serve/json_value.hpp"

namespace pnet::serve {

/// Machine-readable error codes of the serve protocol, alongside the
/// trial-level taxonomy strings reused verbatim from exp::TrialErrorKind
/// ("exception", "timeout", "cancelled", "invariant").
inline constexpr const char* kErrParse = "parse";
inline constexpr const char* kErrInvalidSpec = "invalid_spec";
inline constexpr const char* kErrOversized = "oversized";
/// The 429 of the protocol: admission queue full. Retryable.
inline constexpr const char* kErrOverloaded = "overloaded";
/// Server is drain-stopping (SIGTERM); in-flight work finishes, new work
/// is bounced. Retryable against a replacement instance.
inline constexpr const char* kErrDraining = "draining";

struct RequestError {
  std::string code;
  std::string message;
  /// True when retrying the identical request later can succeed
  /// (overloaded / draining); false for malformed or failing requests.
  bool retryable = false;
};

struct Request {
  enum class Kind : std::uint8_t { kRun, kStats };
  Kind kind = Kind::kRun;
  /// kRun only. spec.trials defaults to 1; every field is optional except
  /// "name" (required by ExperimentSpec::validate()).
  exp::ExperimentSpec spec;
  /// Per-query wall-clock budget in milliseconds; 0 = server default.
  double deadline_ms = 0.0;
};

/// Parses and strictly decodes one request line. Returns false and fills
/// `error` (code kErrParse or kErrInvalidSpec) on any deviation; `out` is
/// unspecified on failure. Does NOT run ExperimentSpec::validate() — the
/// service does, so semantic and syntactic rejections stay distinguishable.
[[nodiscard]] bool decode_request(std::string_view line, Request& out,
                                  RequestError& error,
                                  const ParseLimits& limits = {});

}  // namespace pnet::serve
