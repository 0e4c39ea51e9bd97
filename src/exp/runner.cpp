#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "exp/checkpoint.hpp"
#include "util/audit.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace pnet::exp {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<CellResult> Runner::run(const std::vector<Cell>& cells) const {
  std::vector<CellResult> results = run_trials(cells);
#ifdef __GLIBC__
  // glibc keeps freed heap resident; without the trim, the pages a sweep's
  // trials touched stay in the process's RSS and the next run() grows on
  // top of them.
  malloc_trim(0);
#endif
  return results;
}

std::vector<CellResult> Runner::run_trials(
    const std::vector<Cell>& queued) const {
  // Controller default-merge (set_controller): cells that left the mode at
  // kOff inherit the runner-wide config on a copy, BEFORE validation and
  // spec hashing, so checkpoints and report JSON see the effective config.
  // With no runner default (the common case) `queued` is used untouched —
  // no copy, and byte-identical behavior to builds predating the merge.
  std::vector<Cell> merged;
  if (controller_.active()) {
    merged = queued;
    for (Cell& cell : merged) {
      if (!cell.spec.controller.active()) cell.spec.controller = controller_;
    }
  }
  const std::vector<Cell>& cells = controller_.active() ? merged : queued;
  struct Job {
    std::size_t cell;
    int trial;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& cell = cells[c];
    std::string problem = cell.spec.validate();
    if (problem.empty() && !cell.fn &&
        cell.spec.engine == EngineKind::kFsim) {
      problem = fluid_telemetry_problem(cell.spec.workload, telemetry_);
    }
    if (!problem.empty()) {
      throw std::invalid_argument("exp::Runner: cell '" + cell.spec.name +
                                  "': " + problem);
    }
    if (!cell.fn && cell.spec.engine == EngineKind::kCustom) {
      throw std::invalid_argument("exp::Runner: cell '" + cell.spec.name +
                                  "' has engine=custom but no trial "
                                  "function");
    }
    for (int t = 0; t < cell.spec.trials; ++t) {
      jobs.push_back({c, t});
    }
  }

  // What every trial of a cell shares.
  //  * The engine, resolved once: run_trial is required to be thread-safe
  //    across distinct contexts, so one instance serves every worker.
  //  * A route cache handle over the store of the cell's topology. One
  //    store per distinct topology serves every cell on it, all their
  //    trials and worker threads, for the whole call: an entry is a pure
  //    function of (net, query), so results stay bit-identical for any
  //    --threads value, and path computation runs once per distinct query.
  //    The handle counts the cell's own lookups and what its misses added.
  //  * Checkpoint–resume: the cell's spec hash keys its journal records.
  //    Lookups happen inside the worker lambda; records append as trials
  //    finish, so a kill at any point loses at most in-flight work.
  struct CellState {
    std::unique_ptr<Engine> engine;
    std::shared_ptr<routing::RouteCache> routes;
    std::uint64_t spec_hash = 0;
  };
  std::unique_ptr<Checkpoint> checkpoint;
  if (!checkpoint_.empty()) {
    checkpoint = std::make_unique<Checkpoint>(checkpoint_);
  }
  routing::RoutePool route_pool;
  std::vector<CellState> states;
  states.reserve(cells.size());
  for (const auto& cell : cells) {
    states.push_back(
        {make_engine(cell.spec.engine, cell.fn),
         route_pool.handle(canonical_json(cell.spec.topo)),
         checkpoint != nullptr ? cell.spec.hash() : 0});
  }

  // Watchdog deadlines, fixed at run() entry. The run deadline cancels
  // (kCancelled — the sweep is over); the per-trial budget times out
  // (kTimeout — that one trial was slow). CancelToken::set_deadline keeps
  // the earlier of the two, with its reason.
  const bool run_deadline_armed = run_deadline_s_ > 0.0;
  const util::CancelToken::Clock::time_point run_deadline_at =
      util::CancelToken::Clock::now() +
      std::chrono::duration_cast<util::CancelToken::Clock::duration>(
          std::chrono::duration<double>(
              run_deadline_armed ? run_deadline_s_ : 0.0));

  // A trial either produced a result or a taxonomy-classified error —
  // never an escaped exception, so one bad trial cannot abort the sweep.
  struct Outcome {
    TrialResult result;
    TrialError error;
    bool failed = false;
  };

  auto outcomes = util::parallel_map(
      jobs,
      [this, &cells, &states, &checkpoint, run_deadline_armed,
       run_deadline_at](const Job& job) {
        const Cell& cell = cells[job.cell];
        const CellState& state = states[job.cell];
        const std::uint64_t seed = util::job_seed(
            cell.spec.seed, static_cast<std::uint64_t>(job.trial));
        Outcome out;
        out.error.cell = static_cast<int>(job.cell);
        out.error.trial = job.trial;
        out.error.seed = seed;

        if (checkpoint != nullptr) {
          const TrialResult* done =
              checkpoint->find(state.spec_hash, job.trial);
          if (done != nullptr) {
            out.result = *done;  // resumed: skip the work entirely
            return out;
          }
        }
        if (run_deadline_armed &&
            util::CancelToken::Clock::now() >= run_deadline_at) {
          out.failed = true;
          out.error.kind = TrialErrorKind::kCancelled;
          out.error.what = "run deadline expired before trial started";
          return out;
        }

        const int attempts = 1 + std::max(0, retries_);
        for (int attempt = 0; attempt < attempts; ++attempt) {
          util::CancelToken token;
          if (trial_timeout_s_ > 0.0 || run_deadline_armed) {
            token = util::CancelToken::armed();
            if (trial_timeout_s_ > 0.0) {
              token.set_deadline(
                  util::CancelToken::Clock::now() +
                      std::chrono::duration_cast<
                          util::CancelToken::Clock::duration>(
                          std::chrono::duration<double>(trial_timeout_s_)),
                  util::CancelToken::Reason::kDeadline);
            }
            if (run_deadline_armed) {
              token.set_deadline(run_deadline_at,
                                 util::CancelToken::Reason::kCancelled);
            }
          }
          const TrialContext ctx{cell.spec, job.trial, seed, state.routes,
                                 telemetry_, token, audit_, sim_threads_};
          try {
            const double wall_start = now_seconds();
            out.result = state.engine->run_trial(ctx);
            out.result.wall_s = now_seconds() - wall_start;
            if (attempt > 0) {
              // Runtime block only: which attempt finally succeeded.
              out.result.runtime["retries"] = attempt;
            }
            out.failed = false;
            if (checkpoint != nullptr) {
              checkpoint->record(state.spec_hash, job.trial, out.result);
            }
            return out;
          } catch (const TrialCancelled& e) {
            out.failed = true;
            out.error.kind = e.kind();
            out.error.what = e.what();
            if (e.kind() == TrialErrorKind::kCancelled) break;  // run over
          } catch (const util::InvariantViolation& e) {
            out.failed = true;
            out.error.kind = TrialErrorKind::kInvariant;
            out.error.what = e.what();
            break;  // deterministic: the same seed breaks the same law
          } catch (const std::exception& e) {
            out.failed = true;
            out.error.kind = TrialErrorKind::kException;
            out.error.what = e.what();
          } catch (...) {
            out.failed = true;
            out.error.kind = TrialErrorKind::kException;
            out.error.what = "unknown exception";
          }
        }
        return out;
      },
      threads_);

  std::vector<CellResult> results(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    results[c].spec = cells[c].spec;
    results[c].trials.reserve(static_cast<std::size_t>(cells[c].spec.trials));
  }
  // Job order is trial order within each cell, so both the surviving
  // trials and the errors land in deterministic (trial) order regardless
  // of thread interleaving.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    auto& cell_result = results[jobs[j].cell];
    if (outcomes[j].failed) {
      cell_result.errors.push_back(std::move(outcomes[j].error));
    } else {
      cell_result.trials.push_back(std::move(outcomes[j].result));
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const routing::RouteCacheStats stats = states[c].routes->stats();
    if (stats.hits + stats.misses == 0) continue;  // cell never routed
    auto& runtime = results[c].runtime;
    runtime["route_cache_hits"] = static_cast<double>(stats.hits);
    runtime["route_cache_misses"] = static_cast<double>(stats.misses);
    runtime["route_cache_compute_ns"] =
        static_cast<double>(stats.compute_ns);
    runtime["route_cache_arena_bytes"] =
        static_cast<double>(stats.arena_bytes);
    runtime["route_cache_heap_bytes"] = static_cast<double>(stats.heap_bytes);
    runtime["route_cache_entries"] = static_cast<double>(stats.entries);
    runtime["route_cache_paths"] = static_cast<double>(stats.paths);
  }
  return results;
}

CellResult Runner::run_cell(Cell cell) const {
  std::vector<Cell> cells;
  cells.push_back(std::move(cell));
  auto results = run(cells);
  return std::move(results.front());
}

}  // namespace pnet::exp
