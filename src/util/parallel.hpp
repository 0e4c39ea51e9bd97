// Deterministic fan-out of independent jobs over OS threads.
//
// Each job is self-contained (its own topology, simulator and Rng, seeded
// deterministically from the job index), workers pull jobs from a shared
// atomic cursor, and results land in a preallocated sink indexed by job
// order. The merged result vector is therefore bit-identical regardless of
// thread count or scheduling — the property the exp::Runner determinism
// tests lock in. exp::Runner is a thin layer over this.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"

namespace pnet::util {

/// Deterministic per-job seed for job `index` of a fan-out: decorrelates
/// neighbouring jobs while keeping the whole run reproducible from one
/// base seed.
[[nodiscard]] constexpr std::uint64_t job_seed(std::uint64_t base_seed,
                                               std::uint64_t index) {
  return mix64(base_seed * 0x9E3779B97F4A7C15ULL + index + 1);
}

/// Number of workers a fan-out of `jobs` jobs will actually use for a
/// `--threads` value (0 = all hardware threads).
[[nodiscard]] inline unsigned worker_count(std::size_t jobs, int threads) {
  unsigned workers = threads > 0
                         ? static_cast<unsigned>(threads)
                         : std::max(1u, std::thread::hardware_concurrency());
  return std::min(workers, static_cast<unsigned>(jobs));
}

/// Runs `fn(job)` for every job on up to `threads` OS threads (0 = all
/// hardware threads) and returns the results in job order. `fn` must be
/// self-contained per job (no shared mutable state) and must not throw —
/// an escaping exception terminates the process, the honest outcome for a
/// fan-out worker with nowhere to report.
template <class Job, class Fn>
auto parallel_map(const std::vector<Job>& jobs, Fn fn, int threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, const Job&>> {
  using Result = std::invoke_result_t<Fn&, const Job&>;
  std::vector<Result> results(jobs.size());
  if (jobs.empty()) return results;

  const unsigned workers = worker_count(jobs.size(), threads);
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) results[i] = fn(jobs[i]);
    return results;
  }

  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      results[i] = fn(jobs[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return results;
}

}  // namespace pnet::util
