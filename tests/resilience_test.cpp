// Tests for the resilience layer: cooperative cancellation (CancelToken,
// EventQueue strided polls), trial isolation and the error taxonomy,
// watchdog timeouts and retries, checkpoint-resume, and the invariant
// auditor — including the acceptance sweep where throwing / hanging /
// invariant-violating trials complete with correct taxonomy kinds and the
// healthy trials stay byte-identical across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "sim/event_queue.hpp"
#include "topo/parallel.hpp"
#include "util/audit.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace pnet::exp {
namespace {

// ------------------------------------------------------------ CancelToken

TEST(CancelToken, InertTokenNeverFires) {
  util::CancelToken token;
  EXPECT_FALSE(token.is_armed());
  EXPECT_FALSE(token.cancelled());
  token.cancel();  // no-op on an inert token
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelToken::Reason::kNone);
}

TEST(CancelToken, CancelLatchesFirstReason) {
  auto token = util::CancelToken::armed();
  EXPECT_TRUE(token.is_armed());
  EXPECT_FALSE(token.cancelled());
  token.cancel(util::CancelToken::Reason::kDeadline);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelToken::Reason::kDeadline);
  // First reason wins; a later cancel cannot overwrite it.
  token.cancel(util::CancelToken::Reason::kCancelled);
  EXPECT_EQ(token.reason(), util::CancelToken::Reason::kDeadline);
}

TEST(CancelToken, CopiesShareState) {
  auto token = util::CancelToken::armed();
  const util::CancelToken copy = token;
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_EQ(copy.reason(), util::CancelToken::Reason::kCancelled);
}

TEST(CancelToken, ExpiredDeadlineFiresWithItsReason) {
  auto token = util::CancelToken::armed();
  token.set_deadline(util::CancelToken::Clock::now() -
                         std::chrono::milliseconds(1),
                     util::CancelToken::Reason::kDeadline);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelToken::Reason::kDeadline);
}

TEST(CancelToken, EarlierDeadlineWinsWithItsReason) {
  // The runner arms min(trial budget, run deadline); the earlier deadline
  // must keep its own reason so the taxonomy stays correct.
  auto token = util::CancelToken::armed();
  const auto now = util::CancelToken::Clock::now();
  token.set_deadline(now - std::chrono::milliseconds(1),
                     util::CancelToken::Reason::kCancelled);
  token.set_deadline(now + std::chrono::hours(1),
                     util::CancelToken::Reason::kDeadline);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelToken::Reason::kCancelled);
}

TEST(CancelToken, ThrowIfCancelledMapsReasonsToTaxonomy) {
  util::CancelToken inert;
  EXPECT_NO_THROW(throw_if_cancelled(inert));

  auto timeout = util::CancelToken::armed();
  timeout.cancel(util::CancelToken::Reason::kDeadline);
  try {
    throw_if_cancelled(timeout);
    FAIL() << "expected TrialCancelled";
  } catch (const TrialCancelled& e) {
    EXPECT_EQ(e.kind(), TrialErrorKind::kTimeout);
  }

  auto cancelled = util::CancelToken::armed();
  cancelled.cancel(util::CancelToken::Reason::kCancelled);
  try {
    throw_if_cancelled(cancelled);
    FAIL() << "expected TrialCancelled";
  } catch (const TrialCancelled& e) {
    EXPECT_EQ(e.kind(), TrialErrorKind::kCancelled);
  }
}

// ------------------------------------------------------------- EventQueue

struct CountingSource final : sim::EventSource {
  int fired = 0;
  void do_next_event() override { ++fired; }
};

TEST(EventQueue, RunUntilStopsClockAtDeadlineNotPastIt) {
  // Events at t=50 and t=150; run_until(100) must dispatch only the first
  // and leave now() == 100 — not jump to 150 or beyond.
  sim::EventQueue q;
  CountingSource src;
  q.schedule_at(50, &src);
  q.schedule_at(150, &src);
  q.run_until(100);
  EXPECT_EQ(src.fired, 1);
  EXPECT_EQ(q.now(), 100);
  EXPECT_EQ(q.pending(), 1u);
  // Draining the rest moves time to the remaining event.
  q.run();
  EXPECT_EQ(src.fired, 2);
  EXPECT_EQ(q.now(), 150);
}

TEST(EventQueue, RunUntilOnEmptyQueueAdvancesToDeadline) {
  sim::EventQueue q;
  q.run_until(75);
  EXPECT_EQ(q.now(), 75);
}

TEST(EventQueue, CancelledRunUntilDoesNotJumpOverPendingEvents) {
  // A pre-cancelled token stops dispatch on the first poll; the clock must
  // only advance to min(deadline, next pending event) — events still in
  // the heap must not be skipped over in simulated time.
  sim::EventQueue q;
  CountingSource src;
  q.schedule_at(40, &src);
  q.schedule_at(90, &src);
  auto token = util::CancelToken::armed();
  token.cancel();
  q.set_cancel(&token);
  q.run_until(100);
  EXPECT_EQ(src.fired, 0);          // nothing dispatched
  EXPECT_EQ(q.pending(), 2u);       // work preserved for a later resume
  EXPECT_EQ(q.now(), 40);           // clamped to the next pending event
}

TEST(EventQueue, CancelStopsRunLeavingEventsPending) {
  sim::EventQueue q;
  CountingSource src;
  for (int i = 0; i < 10; ++i) q.schedule_at(i, &src);
  auto token = util::CancelToken::armed();
  token.cancel();
  q.set_cancel(&token);
  q.run();
  EXPECT_EQ(src.fired, 0);
  EXPECT_EQ(q.pending(), 10u);
}

TEST(EventQueue, AuditCountsDispatchChecks) {
  sim::EventQueue q;
  util::Audit audit;
  q.set_audit(&audit);
  CountingSource src;
  q.schedule_at(10, &src);
  q.schedule_at(20, &src);
  q.run();
  EXPECT_TRUE(audit.ok());
  EXPECT_EQ(audit.checks(), 2u);
}

// ------------------------------------------------------- trial isolation

ExperimentSpec custom_spec(const std::string& name, int trials) {
  ExperimentSpec spec;
  spec.name = name;
  spec.engine = EngineKind::kCustom;
  spec.seed = 21;
  spec.trials = trials;
  return spec;
}

ExperimentSpec small_packet_spec(const std::string& name) {
  ExperimentSpec spec;
  spec.name = name;
  spec.engine = EngineKind::kPacket;
  spec.topo.topo = topo::TopoKind::kFatTree;
  spec.topo.type = topo::NetworkType::kParallelHomogeneous;
  spec.topo.hosts = 8;
  spec.topo.parallelism = 2;
  spec.policy.policy = core::RoutingPolicy::kRoundRobin;
  spec.workload.flow_bytes = 200'000;
  spec.workload.rounds = 1;
  spec.seed = 7;
  spec.trials = 2;
  return spec;
}

TrialResult healthy_trial(const TrialContext& ctx) {
  TrialResult r;
  r.flows_started = 1;
  r.flows_finished = 1;
  r.fct_us.push_back(100.0 + ctx.trial);
  r.metrics["seed_lo"] = static_cast<double>(ctx.seed & 0xFFFF);
  return r;
}

// Spins until the watchdog fires (or a wall cap, so an unarmed run cannot
// hang the test binary), then reports the cancellation.
TrialResult hanging_trial(const TrialContext& ctx) {
  const auto start = std::chrono::steady_clock::now();
  while (!ctx.cancel.cancelled() &&
         std::chrono::steady_clock::now() - start <
             std::chrono::seconds(20)) {
  }
  throw_if_cancelled(ctx.cancel);
  return healthy_trial(ctx);  // wall cap hit without a watchdog
}

std::string report_json(const std::vector<CellResult>& cells) {
  Report report("resilience");
  for (const auto& cell : cells) report.add(cell);
  return report.to_json(/*with_runtime=*/false);
}

TEST(Runner, IsolatesFailuresIntoTaxonomy) {
  // One cell per failure mode (trial 1 of 3 fails) plus a healthy cell.
  // The sweep must complete, classify each failure correctly, and keep
  // the report byte-identical between --threads 1 and 4.
  const TrialFn throwing = [](const TrialContext& ctx) {
    if (ctx.trial == 1) throw std::runtime_error("injected fault");
    return healthy_trial(ctx);
  };
  const TrialFn hanging = [](const TrialContext& ctx) {
    if (ctx.trial == 1) return hanging_trial(ctx);
    return healthy_trial(ctx);
  };
  const TrialFn breaking = [](const TrialContext& ctx) {
    if (ctx.trial == 1) {
      throw util::InvariantViolation("injected conservation breach");
    }
    return healthy_trial(ctx);
  };
  const std::vector<Cell> cells = {
      {custom_spec("a-throws", 3), throwing},
      {custom_spec("b-hangs", 3), hanging},
      {custom_spec("c-breaks", 3), breaking},
      {custom_spec("d-healthy", 3), healthy_trial},
  };

  Runner runner(1);
  runner.set_trial_timeout(0.2);
  const auto results = runner.run(cells);
  ASSERT_EQ(results.size(), 4u);

  ASSERT_EQ(results[0].errors.size(), 1u);
  EXPECT_EQ(results[0].errors[0].kind, TrialErrorKind::kException);
  EXPECT_EQ(results[0].errors[0].what, "injected fault");
  EXPECT_EQ(results[0].errors[0].trial, 1);
  EXPECT_EQ(results[0].errors[0].seed, util::job_seed(21, 1));

  ASSERT_EQ(results[1].errors.size(), 1u);
  EXPECT_EQ(results[1].errors[0].kind, TrialErrorKind::kTimeout);

  ASSERT_EQ(results[2].errors.size(), 1u);
  EXPECT_EQ(results[2].errors[0].kind, TrialErrorKind::kInvariant);

  // Healthy trials survive, in trial order, covering exactly trials 0, 2.
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(results[c].trials.size(), 2u) << "cell " << c;
    EXPECT_DOUBLE_EQ(results[c].trials[0].fct_us[0], 100.0);
    EXPECT_DOUBLE_EQ(results[c].trials[1].fct_us[0], 102.0);
  }
  EXPECT_EQ(results[3].errors.size(), 0u);
  EXPECT_EQ(results[3].trials.size(), 3u);

  // The error-bearing report is still a pure function of the specs:
  // byte-identical across thread counts.
  Runner four(4);
  four.set_trial_timeout(0.2);
  EXPECT_EQ(report_json(results), report_json(four.run(cells)));

  // The JSON carries the errors block with the taxonomy kinds.
  const std::string json = report_json(results);
  EXPECT_NE(json.find("\"errors\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"exception\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"invariant\""), std::string::npos);
  EXPECT_NE(json.find("\"trial_errors\":3"), std::string::npos);

  // Healthy trials match a clean run of the same healthy cell.
  const auto clean =
      Runner(1).run_cell({custom_spec("d-healthy", 3), healthy_trial});
  ASSERT_EQ(clean.trials.size(), results[3].trials.size());
  for (std::size_t t = 0; t < clean.trials.size(); ++t) {
    EXPECT_EQ(clean.trials[t].metrics, results[3].trials[t].metrics);
  }
}

TEST(Runner, CleanRunsCarryNoErrorKeys) {
  // The errors block is emitted only when non-empty, so clean-run reports
  // keep their historical bytes (schema v1 untouched).
  const auto cell =
      Runner(1).run_cell({custom_spec("clean", 2), healthy_trial});
  const std::string json = report_json({cell});
  EXPECT_EQ(json.find("\"errors\""), std::string::npos);
  EXPECT_EQ(json.find("\"trial_errors\""), std::string::npos);
}

TEST(Runner, RetriesRerunWithSameSeedAndRecordAttempt) {
  // Trial 1 fails on its first attempt only; with --retries=1 the rerun
  // (same seed — the determinism contract) must succeed and the cell must
  // show no errors. The attempt count lands in the runtime block only.
  std::atomic<int> first_attempts{0};
  std::vector<std::uint64_t> seeds_seen(8, 0);
  const TrialFn flaky = [&](const TrialContext& ctx) {
    if (ctx.trial == 1) {
      seeds_seen[static_cast<std::size_t>(first_attempts.load())] = ctx.seed;
      if (first_attempts.fetch_add(1) == 0) {
        throw std::runtime_error("transient");
      }
    }
    return healthy_trial(ctx);
  };
  Runner runner(2);
  runner.set_retries(1);
  const auto cell = runner.run_cell({custom_spec("flaky", 3), flaky});
  EXPECT_EQ(cell.errors.size(), 0u);
  ASSERT_EQ(cell.trials.size(), 3u);
  EXPECT_EQ(first_attempts.load(), 2);
  EXPECT_EQ(seeds_seen[0], seeds_seen[1]);  // retry reuses the trial seed
  EXPECT_DOUBLE_EQ(cell.trials[1].runtime.at("retries"), 1.0);
  // Retry bookkeeping must not leak into the deterministic report.
  EXPECT_EQ(report_json({cell}).find("retries"), std::string::npos);
}

TEST(Runner, InvariantViolationsAreNeverRetried) {
  std::atomic<int> calls{0};
  const TrialFn breaking = [&](const TrialContext&) -> TrialResult {
    ++calls;
    throw util::InvariantViolation("deterministic breach");
  };
  Runner runner(1);
  runner.set_retries(3);
  const auto cell = runner.run_cell({custom_spec("breaks", 1), breaking});
  EXPECT_EQ(calls.load(), 1);  // no retry: same seed breaks the same law
  ASSERT_EQ(cell.errors.size(), 1u);
  EXPECT_EQ(cell.errors[0].kind, TrialErrorKind::kInvariant);
}

TEST(Runner, RunDeadlineCancelsRemainingTrials) {
  // With an already-expired run deadline every trial reports kCancelled
  // without executing.
  std::atomic<int> calls{0};
  const TrialFn counting = [&](const TrialContext& ctx) {
    ++calls;
    return healthy_trial(ctx);
  };
  Runner runner(1);
  runner.set_run_deadline(1e-9);
  const auto cell = runner.run_cell({custom_spec("late", 3), counting});
  EXPECT_EQ(calls.load(), 0);
  ASSERT_EQ(cell.errors.size(), 3u);
  for (const auto& error : cell.errors) {
    EXPECT_EQ(error.kind, TrialErrorKind::kCancelled);
  }
}

// -------------------------------------------------- checkpoint / resume

class TempPath {
 public:
  explicit TempPath(const char* name)
      : path_(std::string(::testing::TempDir()) + name) {
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

TrialResult rich_trial(const TrialContext& ctx) {
  TrialResult r = healthy_trial(ctx);
  r.fct_us.push_back(0.125 + ctx.trial);  // non-integral double round-trip
  r.delivered_bytes = 1.5e9 + ctx.trial;
  r.sim_seconds = 0.25;
  r.events = 1000 + static_cast<std::uint64_t>(ctx.trial);
  r.samples["goodput"] = {1.25, 2.5, 3.0 + ctx.trial};
  r.metrics["alpha"] = 0.1 * (ctx.trial + 1);
  r.runtime["wallish"] = 42.0;  // runtime keys journal too (harmless)
  return r;
}

TEST(Checkpoint, EncodeDecodeRoundTrips) {
  TrialContext ctx{custom_spec("x", 1), 2, 99, nullptr};
  const TrialResult r = rich_trial(ctx);
  const std::string line = encode_trial(0xDEADBEEFCAFEF00DULL, 2, r);

  std::uint64_t hash = 0;
  int trial = -1;
  TrialResult back;
  ASSERT_TRUE(decode_trial(line, hash, trial, back));
  EXPECT_EQ(hash, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(trial, 2);
  EXPECT_EQ(back.fct_us, r.fct_us);
  EXPECT_EQ(back.flows_started, r.flows_started);
  EXPECT_EQ(back.flows_finished, r.flows_finished);
  EXPECT_EQ(back.delivered_bytes, r.delivered_bytes);
  EXPECT_EQ(back.sim_seconds, r.sim_seconds);
  EXPECT_EQ(back.events, r.events);
  EXPECT_EQ(back.metrics, r.metrics);
  EXPECT_EQ(back.samples, r.samples);

  // Malformed input — truncation, garbage — must be rejected, not crash.
  EXPECT_FALSE(decode_trial("", hash, trial, back));
  EXPECT_FALSE(decode_trial("garbage line", hash, trial, back));
  EXPECT_FALSE(decode_trial(line.substr(0, line.size() / 2), hash, trial,
                            back));
}

TEST(Checkpoint, HashSeparatesSpecs) {
  const auto a = custom_spec("a", 2);
  auto b = custom_spec("a", 2);
  EXPECT_EQ(a.hash(), b.hash());
  b.seed += 1;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Checkpoint, ResumedSweepIsByteIdenticalToUninterrupted) {
  // First pass: trials 2..3 fail, so only 0..1 reach the journal — the
  // in-process stand-in for a sweep killed halfway. Second pass with the
  // healthy function resumes: journaled trials are skipped (not re-run),
  // the rest execute, and the merged report must match an uninterrupted
  // run byte-for-byte.
  TempPath journal("resume_test.ckpt");
  const auto spec = custom_spec("resumable", 4);

  std::atomic<int> calls{0};
  const TrialFn crashy = [&](const TrialContext& ctx) {
    ++calls;
    if (ctx.trial >= 2) throw std::runtime_error("killed");
    return rich_trial(ctx);
  };
  Runner first(2);
  first.set_checkpoint(journal.str());
  const auto partial = first.run_cell({spec, crashy});
  EXPECT_EQ(partial.trials.size(), 2u);
  EXPECT_EQ(partial.errors.size(), 2u);

  std::atomic<int> resumed_calls{0};
  const TrialFn healthy = [&](const TrialContext& ctx) {
    ++resumed_calls;
    return rich_trial(ctx);
  };
  Runner second(2);
  second.set_checkpoint(journal.str());
  const auto resumed = second.run_cell({spec, healthy});
  EXPECT_EQ(resumed_calls.load(), 2);  // trials 0..1 came from the journal
  EXPECT_EQ(resumed.errors.size(), 0u);
  ASSERT_EQ(resumed.trials.size(), 4u);

  const auto uninterrupted = Runner(1).run_cell({spec, rich_trial});
  EXPECT_EQ(report_json({resumed}), report_json({uninterrupted}));
}

TEST(Checkpoint, StaleJournalOfOtherSpecIsIgnored) {
  TempPath journal("stale_test.ckpt");
  std::atomic<int> calls{0};
  const TrialFn counting = [&](const TrialContext& ctx) {
    ++calls;
    return healthy_trial(ctx);
  };
  Runner runner(1);
  runner.set_checkpoint(journal.str());
  (void)runner.run_cell({custom_spec("one", 2), counting});
  EXPECT_EQ(calls.load(), 2);
  // A different spec (different seed → different hash) finds nothing.
  auto other = custom_spec("one", 2);
  other.seed += 100;
  (void)runner.run_cell({other, counting});
  EXPECT_EQ(calls.load(), 4);
}

TEST(Checkpoint, ClosedLoopCellsOfOtherHostCountDoNotAlias) {
  // Two closed-loop cells that differ only in topo.hosts, against one
  // journal: the second must run its own network, not resume the first's
  // journaled trial.
  TempPath journal("hosts_test.ckpt");
  auto spec = small_packet_spec("rpc");
  spec.workload.pattern = WorkloadSpec::Pattern::kClosedLoop;
  spec.workload.rounds = 2;
  spec.trials = 1;
  Runner runner(1);
  runner.set_checkpoint(journal.str());
  const auto small = runner.run_cell({spec, {}});
  spec.topo.hosts = 54;  // a k=6 fat tree (8 hosts round up to k=4's 16)
  const auto large = runner.run_cell({spec, {}});
  ASSERT_EQ(large.trials.size(), 1u);
  EXPECT_EQ(large.trials[0].flows_started,
            2u * static_cast<std::uint64_t>(
                     topo::build_network(spec.topo).num_hosts()));
  EXPECT_NE(large.trials[0].flows_started, small.trials[0].flows_started);
  EXPECT_EQ(report_json({large}),
            report_json({Runner(1).run_cell({spec, {}})}));
}

TEST(Checkpoint, TornFinalLineIsSkippedOnLoad) {
  TempPath journal("torn_test.ckpt");
  TrialContext ctx{custom_spec("x", 1), 0, 1, nullptr};
  const std::string good = encode_trial(0x1111, 0, rich_trial(ctx));
  const std::string torn = good.substr(0, good.size() / 3);
  {
    std::FILE* f = std::fopen(journal.str().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%s\n%s", good.c_str(), torn.c_str());  // kill -9 tear
    std::fclose(f);
  }
  Checkpoint ckpt(journal.str());
  EXPECT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt.loaded(), 1u);
  EXPECT_NE(ckpt.find(0x1111, 0), nullptr);
}

// -------------------------------------------- harness finalize under cancel

TEST(SimHarness, CancelledRunStillLogsPartialFlowRecords) {
  // The satellite contract: a trial cut off by the watchdog must not lose
  // its partial flow records — finalize() after a cancelled run logs every
  // started flow, with completed=false and the delivered progress so far.
  topo::NetworkSpec net;
  net.topo = topo::TopoKind::kFatTree;
  net.type = topo::NetworkType::kParallelHomogeneous;
  net.hosts = 8;
  net.parallelism = 2;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kRoundRobin;

  auto token = util::CancelToken::armed();
  core::SimHarness h({.spec = net, .policy = policy, .cancel = &token});
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    h.starter()(HostId{i}, HostId{i + 4}, 50'000'000, 0,
                [&finished](const sim::FlowRecord&) { ++finished; });
  }
  // Let the transfer make some progress, then fire the watchdog.
  h.run_until(500 * units::kMicrosecond);
  token.cancel(util::CancelToken::Reason::kDeadline);
  h.run();  // returns early on the cancel poll
  EXPECT_EQ(finished, 0);  // 50 MB cannot finish in 500 us

  const int finalized = h.finalize(h.events().now());
  EXPECT_EQ(finalized, 4);
  const auto& records = h.logger().records();
  ASSERT_EQ(records.size(), 4u);
  for (const auto& rec : records) {
    EXPECT_FALSE(rec.completed);
    EXPECT_GT(rec.delivered_bytes, 0u);
    EXPECT_LT(rec.delivered_bytes, rec.bytes);
  }
}

TEST(Runner, TimedOutPacketTrialReportsTimeout) {
  // End-to-end: a packet trial too big for its budget lands in the errors
  // block as kTimeout, while the sweep completes.
  auto spec = small_packet_spec("too-big");
  spec.trials = 1;
  spec.workload.flow_bytes = 2'000'000'000;  // far beyond a 100 ms budget
  Runner runner(1);
  runner.set_trial_timeout(0.1);
  const auto cell = runner.run_cell({spec, {}});
  EXPECT_EQ(cell.trials.size(), 0u);
  ASSERT_EQ(cell.errors.size(), 1u);
  EXPECT_EQ(cell.errors[0].kind, TrialErrorKind::kTimeout);
}

// ----------------------------------------------------------------- audit

TEST(Audit, CollectingModeAccumulatesAndCheckThrows) {
  util::Audit audit;
  EXPECT_TRUE(audit.ok());
  EXPECT_NO_THROW(audit.check());
  audit.fail("first");
  audit.fail("second");
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.violations().size(), 2u);
  EXPECT_NE(audit.summary().find("2 invariant violation"),
            std::string::npos);
  EXPECT_NE(audit.summary().find("first"), std::string::npos);
  EXPECT_THROW(audit.check(), util::InvariantViolation);
}

TEST(Audit, FailFastModeThrowsImmediately) {
  util::Audit audit(/*fail_fast=*/true);
  EXPECT_THROW(audit.fail("boom"), util::InvariantViolation);
}

TEST(Runner, AuditedEnginesPassCleanAndKeepReportBytes) {
  // Both engines run their conservation sweeps with --audit on; a clean
  // simulation must yield zero violations and the exact bytes of an
  // unaudited run (the auditor observes, it must not perturb).
  auto packet = small_packet_spec("audited-packet");
  auto fsim = small_packet_spec("audited-fsim");
  fsim.engine = EngineKind::kFsim;
  const std::vector<Cell> cells = {{packet, {}}, {fsim, {}}};

  Runner plain(2);
  Runner audited(2);
  audited.set_audit(true);
  const auto base = plain.run(cells);
  const auto checked = audited.run(cells);
  for (const auto& cell : checked) {
    EXPECT_EQ(cell.errors.size(), 0u) << cell.spec.name;
  }
  EXPECT_EQ(report_json(base), report_json(checked));
}

TEST(Runner, AuditFlagSurfacesInjectedViolation) {
  // A custom trial that plants a violation through the context's audit
  // switch: built-in engines do this wiring internally; here we assert the
  // taxonomy path end-to-end via a breached collecting auditor.
  const TrialFn breaching = [](const TrialContext& ctx) -> TrialResult {
    util::Audit audit;
    if (ctx.audit) {
      audit.fail("packets lost: received 10 forwarded 8 dropped 1");
    }
    audit.check();
    return TrialResult{};
  };
  Runner runner(1);
  runner.set_audit(true);
  const auto cell = runner.run_cell({custom_spec("breach", 1), breaching});
  ASSERT_EQ(cell.errors.size(), 1u);
  EXPECT_EQ(cell.errors[0].kind, TrialErrorKind::kInvariant);
  EXPECT_NE(cell.errors[0].what.find("packets lost"), std::string::npos);
}

}  // namespace
}  // namespace pnet::exp
