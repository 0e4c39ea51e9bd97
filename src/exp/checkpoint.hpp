// Checkpoint–resume journal for the experiment runner.
//
// The runner appends one line per completed (cell, trial) to a sidecar
// file (--checkpoint PATH); a killed sweep rerun with the same flags loads
// the journal and skips finished work, so long sweeps survive preemption —
// the forerunner of pnet-serve's result cache.
//
// Keying: entries are addressed by (spec hash, trial), where the spec hash
// is exp::ExperimentSpec::hash() — FNV-1a over the spec's canonical JSON,
// the same key the pnet-serve result cache uses. Any spec change
// (topology, workload, seed, engine...) changes the hash, so a stale
// journal can never smuggle results into a different experiment; unrelated
// entries are simply ignored. Trial *results* are encoded with shortest-round-trip
// doubles, so a resumed report is byte-identical to an uninterrupted run
// (traces excepted — they are not journaled; resumed trials lose them).
//
// Robustness: the journal is append-only and line-oriented; each record is
// flushed as it lands. Loading skips anything that does not parse — in
// particular the torn final line a kill -9 can leave — costing at most one
// re-run trial.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "exp/report.hpp"

namespace pnet::exp {

/// One journal line's payload (no trailing newline). Exposed for tests.
[[nodiscard]] std::string encode_trial(std::uint64_t spec_hash, int trial,
                                       const TrialResult& result);
/// Parses a journal line. Returns false (leaving outputs unspecified) on
/// any malformed input — the load path's skip signal.
[[nodiscard]] bool decode_trial(const std::string& line,
                                std::uint64_t& spec_hash, int& trial,
                                TrialResult& result);

class Checkpoint {
 public:
  /// Loads `path` (fine if absent) and opens it for appending. On open
  /// failure ok() is false and record() is a no-op — the runner warns and
  /// continues uncheckpointed rather than aborting the sweep.
  explicit Checkpoint(std::string path);
  ~Checkpoint();
  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// The journaled result for (spec_hash, trial), or nullptr. Stable for
  /// the checkpoint's lifetime (the loaded map is never mutated).
  [[nodiscard]] const TrialResult* find(std::uint64_t spec_hash,
                                        int trial) const;

  /// Appends one completed trial and flushes. Thread-safe.
  void record(std::uint64_t spec_hash, int trial, const TrialResult& result);

  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  /// Entries loaded from the preexisting journal (not ones record()ed).
  [[nodiscard]] std::size_t loaded() const { return entries_.size(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::map<std::pair<std::uint64_t, int>, TrialResult> entries_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

}  // namespace pnet::exp
