// In-memory span recording for the traced benchmark run.
//
// A span is one timed call from the benchmark into a simulator layer:
// name, start, end, the span that caused it, and the trial it belongs to.
// Each traced trial records into its own TrialSpans (single-threaded, no
// locking on the hot path) and hands the finished batch to the process-wide
// SpanLog once. At exit the log derives every span's self time — its
// duration minus the part of its interval that child spans cover — and
// writes the whole run as Chrome trace_event JSON.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (the clock steady_clock reads on Linux,
/// and the one run.py stamps process launches with).
[[nodiscard]] std::int64_t mono_ns();

struct Span {
  const char* name = "";  // a string literal naming the traced call
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the causing span; -1 = none
  std::int32_t trial = -1;   // cell index of the trial; -1 = run level
  std::int32_t lane = 0;     // worker thread lane, for the trace viewer
};

/// The spans of one trial, recorded on the thread that runs it.
class TrialSpans {
 public:
  explicit TrialSpans(int trial) : trial_(trial) {}

  /// Opens a span as a child of the innermost open one; returns its index.
  int open(const char* name);
  void close(int index);
  /// Records an already-measured interval as a closed child of the
  /// innermost open span: for work timed by the simulator itself (route
  /// compilation inside a select call) or by a stand-in call.
  void add_child(const char* name, std::int64_t start_ns,
                 std::int64_t duration_ns);

  [[nodiscard]] std::vector<Span>& spans() { return spans_; }

 private:
  int trial_;
  std::int32_t lane_ = -1;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op when `spans` is null, so traced and untraced trial
/// bodies share one code path.
class Scope {
 public:
  Scope(TrialSpans* spans, const char* name)
      : spans_(spans), index_(spans != nullptr ? spans->open(name) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// When the span opened (0 when not recording).
  [[nodiscard]] std::int64_t start_ns() const {
    return index_ >= 0
               ? spans_->spans()[static_cast<std::size_t>(index_)].start_ns
               : 0;
  }

  /// Ends the span early (before the enclosing block does).
  void close() {
    if (spans_ != nullptr && index_ >= 0) spans_->close(index_);
    index_ = -1;
  }

 private:
  TrialSpans* spans_;
  int index_;
};

/// Every span of the traced run. Trial roots hang under the run-level span
/// named by set_trial_parent (the Runner::run call).
class SpanLog {
 public:
  /// Records a run-level span (main thread) and returns its index.
  int add_run_span(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns);
  /// Sets a run-level span's interval once the call it times has returned.
  void set_times(int index, std::int64_t start_ns, std::int64_t end_ns);
  /// Sets the span that trial roots hang under.
  void set_trial_parent(int index) { trial_parent_ = index; }
  /// Hands over one finished trial (thread-safe, constant time, so the
  /// hand-over adds nothing outside the trial's own spans).
  void add_trial(TrialSpans&& trial);

  // The queries below are for after the run: they merge the trials in.

  [[nodiscard]] const std::vector<Span>& spans();
  /// Sum of self time per span name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds();
  /// Self time of one span, in seconds.
  [[nodiscard]] double self_seconds(int index);
  /// Chrome trace_event JSON of every span (timestamps relative to the
  /// earliest span, in microseconds).
  [[nodiscard]] std::string chrome_json();

 private:
  void merge_trials();
  [[nodiscard]] std::vector<std::vector<std::int32_t>> children() const;
  [[nodiscard]] std::int64_t covered_ns(
      const Span& span, const std::vector<std::int32_t>& kids) const;

  std::mutex mu_;  // guards trials_ (appended from worker threads)
  std::vector<TrialSpans> trials_;
  std::vector<Span> spans_;
  std::int32_t trial_parent_ = -1;
};

}  // namespace perfbench
