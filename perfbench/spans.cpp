#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <utility>

namespace perfbench {

namespace {

/// Trace-viewer lane of the calling thread, assigned on first use.
std::int32_t thread_lane() {
  static std::atomic<std::int32_t> next{1};
  thread_local const std::int32_t lane = next.fetch_add(1);
  return lane;
}

}  // namespace

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int TrialSpans::open(const char* name) {
  if (lane_ < 0) lane_ = thread_lane();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, mono_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                    trial_, lane_});
  stack_.push_back(index);
  return index;
}

void TrialSpans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = mono_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void TrialSpans::add_child(const char* name, std::int64_t start_ns,
                           std::int64_t duration_ns) {
  if (lane_ < 0) lane_ = thread_lane();
  spans_.push_back({name, start_ns,
                    start_ns + std::max<std::int64_t>(0, duration_ns),
                    stack_.empty() ? -1 : stack_.back(), trial_, lane_});
}

int SpanLog::add_run_span(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns) {
  spans_.push_back({name, start_ns, end_ns, -1, -1, 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::set_times(int index, std::int64_t start_ns,
                        std::int64_t end_ns) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.start_ns = start_ns;
  span.end_ns = end_ns;
}

void SpanLog::add_trial(TrialSpans&& trial) {
  const std::lock_guard<std::mutex> lock(mu_);
  trials_.push_back(std::move(trial));
}

void SpanLog::merge_trials() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (TrialSpans& trial : trials_) {
    const auto offset = static_cast<std::int32_t>(spans_.size());
    for (Span span : trial.spans()) {
      span.parent = span.parent < 0 ? trial_parent_ : span.parent + offset;
      spans_.push_back(span);
    }
  }
  trials_.clear();
}

const std::vector<Span>& SpanLog::spans() {
  merge_trials();
  return spans_;
}

std::vector<std::vector<std::int32_t>> SpanLog::children() const {
  std::vector<std::vector<std::int32_t>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int32_t parent = spans_[i].parent;
    if (parent >= 0) {
      kids[static_cast<std::size_t>(parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  return kids;
}

std::int64_t SpanLog::covered_ns(
    const Span& span, const std::vector<std::int32_t>& kids) const {
  // Union of the children's intervals clipped to the parent: children of
  // a run-level span overlap (trials on parallel workers).
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  intervals.reserve(kids.size());
  for (const std::int32_t k : kids) {
    const Span& kid = spans_[static_cast<std::size_t>(k)];
    const std::int64_t lo = std::max(kid.start_ns, span.start_ns);
    const std::int64_t hi = std::min(kid.end_ns, span.end_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : intervals) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return covered;
}

double SpanLog::self_seconds(int index) {
  merge_trials();
  const Span& span = spans_[static_cast<std::size_t>(index)];
  const auto kids = children();
  return static_cast<double>(span.end_ns - span.start_ns -
                             covered_ns(span, kids[static_cast<std::size_t>(
                                 index)])) *
         1e-9;
}

std::map<std::string, double> SpanLog::self_seconds() {
  merge_trials();
  const auto kids = children();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns -
                            covered_ns(span, kids[i])) *
        1e-9;
  }
  return out;
}

std::string SpanLog::chrome_json() {
  merge_trials();
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (i == 0 || spans_[i].start_ns < origin) origin = spans_[i].start_ns;
  }
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"trial\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<int>(s.lane), i, static_cast<int>(s.parent),
                  static_cast<int>(s.trial));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
