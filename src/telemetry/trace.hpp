// Span/instant event tracing with Chrome trace_event JSON and compact
// binary export.
//
// A Trace is an append-only in-memory event buffer with an interned name
// table: recording an event is a hash lookup plus a vector push, cheap
// enough for flow-level events (starts, finishes, repaths, fabric faults)
// but not meant for per-packet use. Export to the
// Chrome trace_event JSON array format (load in chrome://tracing or
// Perfetto) or to a compact length-prefixed binary blob for offline
// tooling.
//
// Cost when off: sites record through the PNET_TRACE_* macros, which are a
// null-pointer test when no trace is wired (the default), so the disabled
// path stays within the bench_micro_sim overhead budget.
// Timestamps are SimTime picoseconds; JSON emits microseconds (the
// trace_event unit) with exact decimal conversion — no double formatting —
// so exports are byte-deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/units.hpp"

namespace pnet::telemetry {

class Trace {
 public:
  enum class Phase : char {
    kInstant = 'i',
    kComplete = 'X',  // a span: ts + dur
  };

  struct Event {
    std::uint32_t name = 0;  // index into names()
    Phase phase = Phase::kInstant;
    bool has_arg = false;
    SimTime ts = 0;
    SimTime dur = 0;         // kComplete only
    std::int64_t arg = 0;    // optional numeric payload (flow id, plane...)

    friend bool operator==(const Event&, const Event&) = default;
  };

  explicit Trace(bool enabled = true) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  void instant(std::string_view name, SimTime ts);
  void instant(std::string_view name, SimTime ts, std::int64_t arg);
  void complete(std::string_view name, SimTime start, SimTime end);
  void complete(std::string_view name, SimTime start, SimTime end,
                std::int64_t arg);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Appends another trace's events (names re-interned). For merging
  /// per-trial traces into one export.
  void append(const Trace& other);

  /// Appends this trace's events as Chrome trace_event objects to a JSON
  /// array under construction. `first` tracks whether a comma is due and
  /// is updated; pid/tid label the process/thread lanes in the viewer.
  void append_chrome_json(std::string& out, int pid, int tid,
                          bool& first) const;
  /// A complete single-trace Chrome JSON document:
  /// {"traceEvents": [...], "displayTimeUnit": "ms"}.
  [[nodiscard]] std::string chrome_json() const;

  /// Compact binary export: magic + version + name table + fixed-width
  /// little-endian event records. parse_binary() round-trips it.
  void append_binary(std::string& out) const;
  static bool parse_binary(std::string_view in, Trace& out);

  static constexpr std::uint32_t kBinaryMagic = 0x50545243u;  // "CRTP"
  static constexpr std::uint32_t kBinaryVersion = 1;

 private:
  std::uint32_t intern(std::string_view name);

  bool enabled_;
  std::vector<Event> events_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
};

/// One Chrome metadata event naming a pid lane, appended to an open array.
void append_chrome_process_name(std::string& out, int pid,
                                std::string_view name, bool& first);

// Recording macros: null-safe, one pointer test when no trace is wired.
#define PNET_TRACE_INSTANT(trace, ...)                                \
  do {                                                                \
    ::pnet::telemetry::Trace* pnet_trace_tmp_ = (trace);              \
    if (pnet_trace_tmp_ != nullptr && pnet_trace_tmp_->enabled()) {   \
      pnet_trace_tmp_->instant(__VA_ARGS__);                          \
    }                                                                 \
  } while (0)
#define PNET_TRACE_COMPLETE(trace, ...)                               \
  do {                                                                \
    ::pnet::telemetry::Trace* pnet_trace_tmp_ = (trace);              \
    if (pnet_trace_tmp_ != nullptr && pnet_trace_tmp_->enabled()) {   \
      pnet_trace_tmp_->complete(__VA_ARGS__);                         \
    }                                                                 \
  } while (0)

}  // namespace pnet::telemetry
