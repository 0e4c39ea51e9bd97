// Tests for the flow-level fluid simulator: max-min allocator properties,
// analytic time-dynamics, cross-validation against lp::max_concurrent_flow
// (the two solve the same problem for single-fixed-path commodities) and
// against the packet simulator's FCTs, and sweep determinism across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "exp/engine.hpp"
#include "exp/spec.hpp"
#include "fsim/fluid.hpp"
#include "fsim/max_min.hpp"
#include "lp/link_index.hpp"
#include "lp/mcf.hpp"
#include "routing/ecmp.hpp"
#include "routing/plane_paths.hpp"
#include "topo/parallel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"
#include "workload/patterns.hpp"

namespace pnet::fsim {
namespace {

topo::NetworkSpec fat_tree_spec(topo::NetworkType type, int hosts,
                                int planes, std::uint64_t seed = 1) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = type;
  spec.hosts = hosts;
  spec.parallelism = planes;
  spec.seed = seed;
  return spec;
}

// ------------------------------------------------------------ MaxMinAllocator

TEST(MaxMinAllocator, TwoFlowsShareOneLink) {
  MaxMinAllocator alloc({10.0});
  const int a = alloc.add({0});
  const int b = alloc.add({0});
  alloc.solve();
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 5.0);
  EXPECT_DOUBLE_EQ(alloc.rate_bps(b), 5.0);
}

TEST(MaxMinAllocator, ClassicChainAllocation) {
  // Links: 0 (cap 10) shared by A and B; 1 (cap 20) shared by B and C.
  // Max-min: A = B = 5 (link 0 bottleneck), C = 15 (what link 1 leaves).
  MaxMinAllocator alloc({10.0, 20.0});
  const int a = alloc.add({0});
  const int b = alloc.add({0, 1});
  const int c = alloc.add({1});
  alloc.solve();
  EXPECT_NEAR(alloc.rate_bps(a), 5.0, 1e-9);
  EXPECT_NEAR(alloc.rate_bps(b), 5.0, 1e-9);
  EXPECT_NEAR(alloc.rate_bps(c), 15.0, 1e-9);
}

TEST(MaxMinAllocator, DisjointAddsTakeFastPath) {
  MaxMinAllocator alloc({4.0, 7.0, 9.0});
  const int a = alloc.add({0});
  const int b = alloc.add({1, 2});
  EXPECT_FALSE(alloc.dirty());  // neither add needed a global solve
  EXPECT_EQ(alloc.fast_paths(), 2);
  EXPECT_EQ(alloc.full_solves(), 0);
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 4.0);
  EXPECT_DOUBLE_EQ(alloc.rate_bps(b), 7.0);  // min capacity along the path

  // A third subflow overlapping b's path must dirty the allocator. Link 2
  // (cap 9) is then the shared bottleneck: b and c settle at 4.5 each.
  const int c = alloc.add({2});
  EXPECT_TRUE(alloc.dirty());
  alloc.solve();
  EXPECT_EQ(alloc.full_solves(), 1);
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 4.0);
  EXPECT_NEAR(alloc.rate_bps(b), 4.5, 1e-9);
  EXPECT_NEAR(alloc.rate_bps(c), 4.5, 1e-9);
}

TEST(MaxMinAllocator, RemoveReleasesBandwidth) {
  MaxMinAllocator alloc({10.0});
  const int a = alloc.add({0});
  const int b = alloc.add({0});
  alloc.solve();
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 5.0);
  alloc.remove(b);
  alloc.solve();
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 10.0);
  EXPECT_EQ(alloc.active(), 1);
}

TEST(MaxMinAllocator, MatchesLpMaxMinFairOnRandomInstances) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int num_links = 3 + static_cast<int>(rng.next_below(6));
    std::vector<double> cap;
    for (int l = 0; l < num_links; ++l) {
      cap.push_back(1.0 + static_cast<double>(rng.next_below(20)));
    }
    std::vector<std::vector<int>> paths;
    const int num_flows = 2 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < num_flows; ++f) {
      std::vector<int> links;
      for (int l = 0; l < num_links; ++l) {
        if (rng.next_below(2) == 0) links.push_back(l);
      }
      if (links.empty()) links.push_back(0);
      paths.push_back(std::move(links));
    }
    const auto oracle = lp::max_min_fair(cap, paths);
    MaxMinAllocator alloc(cap);
    std::vector<int> ids;
    for (const auto& p : paths) ids.push_back(alloc.add(p));
    alloc.solve();
    for (std::size_t f = 0; f < paths.size(); ++f) {
      EXPECT_NEAR(alloc.rate_bps(ids[f]), oracle[f], 1e-6 * oracle[f])
          << "trial " << trial << " flow " << f;
    }
    util::Audit audit;  // both allocations pass the optimality audit
    audit_max_min(cap, paths, oracle, audit);
    alloc.audit_check(audit);
    EXPECT_TRUE(audit.ok()) << "trial " << trial << ": " << audit.summary();
    EXPECT_EQ(audit.checks(), 2u);
  }
}

TEST(MaxMinAllocator, AuditRejectsFeasibleButUnfairAllocations) {
  // Links: 0 (10 Gb/s) shared by A and B; 1 (20 Gb/s) shared by B and C.
  const std::vector<double> cap = {10e9, 20e9};
  const std::vector<std::vector<int>> paths = {{0}, {0, 1}, {1}};
  const auto fair = lp::max_min_fair(cap, paths);
  {
    util::Audit audit;
    audit_max_min(cap, paths, fair, audit);
    EXPECT_TRUE(audit.ok()) << audit.summary();
  }
  {
    util::Audit audit;  // all zeros: feasible, but nothing is saturated
    audit_max_min(cap, paths, std::vector<double>(3, 0.0), audit);
    EXPECT_EQ(audit.violations().size(), 3u) << audit.summary();
  }
  {
    std::vector<double> halved = fair;
    for (double& rate : halved) rate /= 2;
    util::Audit audit;
    audit_max_min(cap, paths, halved, audit);
    EXPECT_EQ(audit.violations().size(), 3u) << audit.summary();
  }
  {
    // Saturated but unfair: C takes link 1's slack from B, so B's only
    // saturated links carry a larger rate than its own.
    util::Audit audit;
    audit_max_min(cap, paths, std::vector<double>{8e9, 2e9, 18e9}, audit);
    ASSERT_EQ(audit.violations().size(), 1u) << audit.summary();
    EXPECT_NE(audit.violations()[0].find("subflow 1"), std::string::npos);
  }
  {
    util::Audit audit;  // over capacity on link 0
    audit_max_min(cap, paths, std::vector<double>{6e9, 6e9, 14e9}, audit);
    EXPECT_FALSE(audit.ok());
  }
}

// ------------------------------------------------- independent reference
//
// The water-fill as it stood before the allocator cached link shares and
// kept its adjacency between solves: every solve rediscovers the active
// links, rebuilds the link -> subflow adjacency by counting sort, and
// every round evaluates every slot's share twice. MaxMinAllocator must
// reproduce its rates bit for bit, and its solve/fast-path counts.

class ReferenceMaxMin {
 public:
  explicit ReferenceMaxMin(std::vector<double> capacity_bps)
      : capacity_(std::move(capacity_bps)),
        active_on_link_(capacity_.size(), 0),
        slot_of_link_(capacity_.size(), -1) {}

  int add(std::vector<int> links) {
    int id;
    if (free_ids_.empty()) {
      id = static_cast<int>(subflows_.size());
      subflows_.emplace_back();
    } else {
      id = free_ids_.back();
      free_ids_.pop_back();
    }
    auto& sub = subflows_[static_cast<std::size_t>(id)];
    sub.links = std::move(links);
    sub.live_pos = static_cast<int>(live_ids_.size());
    live_ids_.push_back(id);
    bool alone = true;
    double cap = std::numeric_limits<double>::infinity();
    for (int link : sub.links) {
      if (active_on_link_[static_cast<std::size_t>(link)]++ > 0) alone = false;
      cap = std::min(cap, capacity_[static_cast<std::size_t>(link)]);
    }
    if (alone && !dirty_) {
      sub.rate_bps = sub.links.empty() ? 0.0 : cap;
      ++fast_paths_;
    } else {
      dirty_ = true;
    }
    return id;
  }

  void remove(int id) {
    auto& sub = subflows_[static_cast<std::size_t>(id)];
    bool alone = true;
    for (int link : sub.links) {
      if (--active_on_link_[static_cast<std::size_t>(link)] > 0) alone = false;
    }
    const int last = live_ids_.back();
    live_ids_[static_cast<std::size_t>(sub.live_pos)] = last;
    subflows_[static_cast<std::size_t>(last)].live_pos = sub.live_pos;
    live_ids_.pop_back();
    sub.live_pos = -1;
    sub.links.clear();
    sub.rate_bps = 0.0;
    free_ids_.push_back(id);
    if (alone) {
      ++fast_paths_;
    } else {
      dirty_ = true;
    }
  }

  void set_capacity(int link, double bps) {
    capacity_[static_cast<std::size_t>(link)] = bps;
    dirty_ = true;
  }

  void solve() {
    if (!dirty_) return;
    dirty_ = false;
    ++full_solves_;
    std::vector<int> slot_links;
    std::vector<double> slot_rem;
    std::vector<int> slot_degree;
    for (int id : live_ids_) {
      for (int link : subflows_[static_cast<std::size_t>(id)].links) {
        auto& slot = slot_of_link_[static_cast<std::size_t>(link)];
        if (slot < 0) {
          slot = static_cast<int>(slot_links.size());
          slot_links.push_back(link);
          slot_rem.push_back(capacity_[static_cast<std::size_t>(link)]);
          slot_degree.push_back(0);
        }
        ++slot_degree[static_cast<std::size_t>(slot)];
      }
    }
    const std::size_t nslots = slot_links.size();
    std::vector<int> slot_offset(nslots + 1, 0);
    for (std::size_t s = 0; s < nslots; ++s) {
      slot_offset[s + 1] = slot_offset[s] + slot_degree[s];
    }
    std::vector<int> slot_subs(static_cast<std::size_t>(slot_offset[nslots]));
    std::vector<int> slot_unfrozen(nslots, 0);
    for (int id : live_ids_) {
      for (int link : subflows_[static_cast<std::size_t>(id)].links) {
        const auto slot = static_cast<std::size_t>(
            slot_of_link_[static_cast<std::size_t>(link)]);
        slot_subs[static_cast<std::size_t>(slot_offset[slot]) +
                  static_cast<std::size_t>(slot_unfrozen[slot]++)] = id;
      }
    }
    std::vector<char> frozen(subflows_.size(), 0);
    std::size_t remaining = live_ids_.size();
    std::vector<int> scan;
    while (remaining > 0) {
      double level = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < nslots; ++s) {
        if (slot_unfrozen[s] <= 0) continue;
        const double share = std::max(slot_rem[s], 0.0) /
                             static_cast<double>(slot_unfrozen[s]);
        level = std::min(level, share);
      }
      if (!std::isfinite(level)) break;
      scan.clear();
      const double cutoff = level + level * 1e-12 +
                            std::numeric_limits<double>::min();
      for (std::size_t s = 0; s < nslots; ++s) {
        if (slot_unfrozen[s] <= 0) continue;
        const double share = std::max(slot_rem[s], 0.0) /
                             static_cast<double>(slot_unfrozen[s]);
        if (share <= cutoff) scan.push_back(static_cast<int>(s));
      }
      for (int s : scan) {
        const auto begin = static_cast<std::size_t>(
            slot_offset[static_cast<std::size_t>(s)]);
        const auto end = static_cast<std::size_t>(
            slot_offset[static_cast<std::size_t>(s) + 1]);
        for (std::size_t i = begin; i < end; ++i) {
          const int id = slot_subs[i];
          if (frozen[static_cast<std::size_t>(id)]) continue;
          frozen[static_cast<std::size_t>(id)] = 1;
          auto& sub = subflows_[static_cast<std::size_t>(id)];
          sub.rate_bps = level;
          --remaining;
          for (int link : sub.links) {
            const auto slot = static_cast<std::size_t>(
                slot_of_link_[static_cast<std::size_t>(link)]);
            slot_rem[slot] -= level;
            --slot_unfrozen[slot];
          }
        }
      }
    }
    for (std::size_t s = 0; s < nslots; ++s) {
      slot_of_link_[static_cast<std::size_t>(slot_links[s])] = -1;
    }
  }

  [[nodiscard]] double rate_bps(int id) const {
    return subflows_[static_cast<std::size_t>(id)].rate_bps;
  }
  [[nodiscard]] const std::vector<int>& live_ids() const { return live_ids_; }
  [[nodiscard]] std::int64_t full_solves() const { return full_solves_; }
  [[nodiscard]] std::int64_t fast_paths() const { return fast_paths_; }

 private:
  struct Subflow {
    std::vector<int> links;
    double rate_bps = 0.0;
    int live_pos = -1;
  };
  std::vector<double> capacity_;
  std::vector<int> active_on_link_;
  std::vector<Subflow> subflows_;
  std::vector<int> free_ids_;
  std::vector<int> live_ids_;
  std::vector<int> slot_of_link_;
  bool dirty_ = false;
  std::int64_t full_solves_ = 0;
  std::int64_t fast_paths_ = 0;
};

/// Drives MaxMinAllocator and the reference through the same changes and
/// compares every live rate by its bits after each one.
class WaterFillTwin {
 public:
  explicit WaterFillTwin(const std::vector<double>& capacity)
      : alloc_(capacity), ref_(capacity) {}

  int add(const std::vector<int>& links) {
    const int id = alloc_.add(links);
    EXPECT_EQ(ref_.add(links), id);
    return id;
  }
  void remove(int id) {
    alloc_.remove(id);
    ref_.remove(id);
  }
  void set_capacity(int link, double bps) {
    alloc_.set_capacity(link, bps);
    ref_.set_capacity(link, bps);
  }
  void solve() {
    alloc_.solve();
    ref_.solve();
  }
  [[nodiscard]] const std::vector<int>& live_ids() const {
    return ref_.live_ids();
  }

  /// True when every live rate and both counters match the reference,
  /// and the rates pass the max-min optimality audit.
  [[nodiscard]] ::testing::AssertionResult same() const {
    if (alloc_.full_solves() != ref_.full_solves() ||
        alloc_.fast_paths() != ref_.fast_paths()) {
      return ::testing::AssertionFailure()
             << "solves/fast paths " << alloc_.full_solves() << "/"
             << alloc_.fast_paths() << " vs reference " << ref_.full_solves()
             << "/" << ref_.fast_paths();
    }
    if (alloc_.active() != static_cast<int>(ref_.live_ids().size())) {
      return ::testing::AssertionFailure() << "live subflow counts differ";
    }
    for (int id : ref_.live_ids()) {
      if (std::bit_cast<std::uint64_t>(alloc_.rate_bps(id)) !=
          std::bit_cast<std::uint64_t>(ref_.rate_bps(id))) {
        return ::testing::AssertionFailure()
               << "subflow " << id << " rate " << alloc_.rate_bps(id)
               << " vs reference " << ref_.rate_bps(id);
      }
    }
    util::Audit audit;
    alloc_.audit_check(audit);  // skipped while changes await a solve()
    if (!audit.ok()) return ::testing::AssertionFailure() << audit.summary();
    return ::testing::AssertionSuccess();
  }

 private:
  MaxMinAllocator alloc_;
  ReferenceMaxMin ref_;
};

TEST(WaterFillReference, MatchesOnRandomChurn) {
  Rng rng(2024);
  for (int instance = 0; instance < 2500; ++instance) {
    const int num_links = 1 + static_cast<int>(rng.next_below(12));
    // Small integer capacities make exact share ties common; the rest
    // are arbitrary doubles.
    const bool integral = rng.next_below(2) == 0;
    std::vector<double> cap;
    for (int l = 0; l < num_links; ++l) {
      cap.push_back(integral
                        ? static_cast<double>(1 + rng.next_below(4))
                        : 1e9 * (0.5 + 99.5 * rng.next_double()));
    }
    WaterFillTwin twin(cap);
    std::vector<int> live;
    const int ops = 5 + static_cast<int>(rng.next_below(40));
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t kind = rng.next_below(10);
      if (kind < 5 || live.empty()) {
        // Mostly short simple paths; sometimes empty, sometimes a link
        // twice.
        std::vector<int> path;
        const int hops = static_cast<int>(rng.next_below(5));
        for (int h = 0; h < hops; ++h) {
          path.push_back(static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(num_links))));
        }
        if (rng.next_below(8) != 0) {
          std::sort(path.begin(), path.end());
          path.erase(std::unique(path.begin(), path.end()), path.end());
        }
        live.push_back(twin.add(path));
      } else if (kind < 8) {
        const std::size_t pick = rng.next_below(live.size());
        twin.remove(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else {
        // Fail a link (capacity 0) or restore it.
        const int link = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(num_links)));
        const double restored = cap[static_cast<std::size_t>(link)];
        twin.set_capacity(link, kind == 8 ? 0.0 : restored);
      }
      // Usually solve after every change; sometimes let changes pile up
      // (the fast paths only fire on a clean allocator).
      if (rng.next_below(4) != 0) twin.solve();
      ASSERT_TRUE(twin.same()) << "instance " << instance << " op " << op;
    }
    twin.solve();
    ASSERT_TRUE(twin.same()) << "instance " << instance << " final";
  }
}

// The subflow paths of a 96-host Jellyfish fig9 fluid cell, added in flow
// order and removed in a seeded random order, solving after each change.
void expect_fig9_cell_matches_reference(topo::NetworkType type) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.type = type;
  spec.hosts = 96;
  spec.parallelism = 4;
  spec.seed = 1;
  const auto net = topo::build_network(spec);
  core::PolicyConfig policy;
  const bool parallel = type == topo::NetworkType::kParallelHomogeneous;
  if (parallel) {
    policy.policy = core::RoutingPolicy::kKspMultipath;
    policy.k = 4;
  } else {
    policy.policy = core::RoutingPolicy::kShortestPlane;
  }
  const FsimConfig config = exp::to_fsim_config(policy, 1'000'000);
  const lp::LinkIndex index(net);

  WaterFillTwin twin(index.capacity());
  Rng rng(util::job_seed(1, 0));
  std::vector<int> ids;
  const auto pairs = workload::permutation_pairs(net.num_hosts(), rng);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (const auto& path : choose_paths(net, config, pairs[i].first,
                                         pairs[i].second,
                                         static_cast<std::uint64_t>(i))) {
      ids.push_back(twin.add(index.to_global(path)));
      twin.solve();
      ASSERT_TRUE(twin.same()) << "add " << ids.size();
    }
  }
  EXPECT_GE(ids.size(), parallel ? 4 * pairs.size() : pairs.size());
  rng.shuffle(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    twin.remove(ids[i]);
    twin.solve();
    ASSERT_TRUE(twin.same()) << "remove " << i;
  }
}

TEST(WaterFillReference, MatchesOnFig9ParallelKspCell) {
  expect_fig9_cell_matches_reference(topo::NetworkType::kParallelHomogeneous);
}

TEST(WaterFillReference, MatchesOnFig9SerialShortestPlaneCell) {
  expect_fig9_cell_matches_reference(topo::NetworkType::kSerialLow);
}

// ------------------------------------------------- warm-started water-fill

/// MaxMinAllocator and the reference driven through the same changes, with
/// the allocator in reach so a test can tell how a solve started as well
/// as check what it computed.
class WarmTwin {
 public:
  explicit WarmTwin(const std::vector<double>& capacity)
      : alloc(capacity), ref(capacity) {}

  int add(const std::vector<int>& links) {
    const int id = alloc.add(links);
    EXPECT_EQ(ref.add(links), id);
    return id;
  }
  void remove(int id) {
    alloc.remove(id);
    ref.remove(id);
  }
  void set_capacity(int link, double bps) {
    alloc.set_capacity(link, bps);
    ref.set_capacity(link, bps);
  }
  /// Solves both; true when the allocator's solve resumed past round 0.
  bool solve() {
    const std::int64_t warm = alloc.warm_solves();
    alloc.solve();
    ref.solve();
    return alloc.warm_solves() > warm;
  }

  /// Every live rate bit-identical to the reference, the same counters,
  /// and a clean max-min audit.
  [[nodiscard]] ::testing::AssertionResult same() const {
    if (alloc.full_solves() != ref.full_solves() ||
        alloc.fast_paths() != ref.fast_paths()) {
      return ::testing::AssertionFailure()
             << "solves/fast paths " << alloc.full_solves() << "/"
             << alloc.fast_paths() << " vs reference " << ref.full_solves()
             << "/" << ref.fast_paths();
    }
    for (int id : ref.live_ids()) {
      if (std::bit_cast<std::uint64_t>(alloc.rate_bps(id)) !=
          std::bit_cast<std::uint64_t>(ref.rate_bps(id))) {
        return ::testing::AssertionFailure()
               << "subflow " << id << " rate " << alloc.rate_bps(id)
               << " vs reference " << ref.rate_bps(id);
      }
    }
    util::Audit audit;
    alloc.audit_check(audit);
    if (!audit.ok()) return ::testing::AssertionFailure() << audit.summary();
    return ::testing::AssertionSuccess();
  }

  MaxMinAllocator alloc;
  ReferenceMaxMin ref;
};

/// Links 0-4 of 1-5 Gb/s, each carrying two one-hop subflows (a[i], b[i]),
/// and one subflow across all five. The fill freezes the long subflow and
/// link 0's pair in round 0, then link i's pair in round i. Link 5 is idle
/// for fast-path arrivals; its capacity lies just within round 1's cutoff,
/// so a subflow there freezes at round 1's level in a solve, not at the
/// capacity the fast path gives it.
struct Staircase {
  static constexpr int kLinks = 5;
  static constexpr int kIdle = 5;

  static std::vector<double> capacity() {
    std::vector<double> cap;
    for (int l = 0; l < kLinks; ++l) cap.push_back(1e9 * (l + 1));
    const double level0 = 1e9 / 3;
    const double level1 = (2e9 - level0) / 2;
    cap.push_back(level1 * (1 + 1e-13));
    return cap;
  }

  Staircase() : twin(capacity()) {
    across = twin.add({0, 1, 2, 3, 4});
    for (int l = 0; l < kLinks; ++l) {
      a.push_back(twin.add({l}));
      b.push_back(twin.add({l}));
    }
    EXPECT_FALSE(twin.solve());  // the first solve is cold
    EXPECT_TRUE(twin.same());
  }

  WarmTwin twin;
  int across = -1;
  std::vector<int> a, b;
};

TEST(WaterFillWarmStart, DepartureReplaysTheRoundsBeforeItsOwn) {
  // Round 0 (first), 2 (middle) and 4 (last): only a departure from round
  // 0 has nothing to replay.
  for (const int round : {0, 2, 4}) {
    Staircase s;
    const auto r = static_cast<std::size_t>(round);
    s.twin.remove(s.a[r]);
    EXPECT_EQ(s.twin.solve(), round > 0) << "round " << round;
    ASSERT_TRUE(s.twin.same()) << "round " << round;
    s.twin.remove(s.b[r]);
    EXPECT_EQ(s.twin.solve(), round > 0) << "round " << round;
    ASSERT_TRUE(s.twin.same()) << "round " << round;
  }
}

TEST(WaterFillWarmStart, ArrivalResumesAtTheFirstRoundItReaches) {
  Staircase s;
  // Link 0 saturates first: an arrival there changes round 0.
  s.twin.add({0});
  EXPECT_FALSE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  // On link 1 it cannot reach round 0 (2 Gb/s over 4 is above its level).
  s.twin.add({1});
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
}

TEST(WaterFillWarmStart, FastPathArrivalJoinsTheNextWarmSolve) {
  Staircase s;
  const int idle = s.twin.add({Staircase::kIdle});
  EXPECT_FALSE(s.twin.alloc.dirty());  // fast path: the capacity as rate
  EXPECT_EQ(s.twin.alloc.rate_bps(idle),
            Staircase::capacity()[Staircase::kIdle]);
  ASSERT_TRUE(s.twin.same());
  // A departure from round 3 dirties the allocator; the idle subflow
  // reaches round 1, where the cold fill freezes it at that round's level.
  s.twin.remove(s.a[3]);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  EXPECT_EQ(s.twin.alloc.rate_bps(idle), s.twin.alloc.rate_bps(s.a[1]));
}

TEST(WaterFillWarmStart, ChangesPileUpBeforeOneSolve) {
  Staircase s;
  s.twin.remove(s.b[3]);
  s.twin.remove(s.a[4]);
  s.twin.add({2, 3});
  s.twin.add({4});
  s.twin.add({Staircase::kIdle});
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  s.twin.remove(s.b[1]);
  s.twin.add({1, 2});
  s.twin.remove(s.a[2]);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
}

TEST(WaterFillWarmStart, IdRemovedAndAddedAgainBeforeTheSolve) {
  Staircase s;
  // The removal's round bounds the resume round; the new subflow behind
  // the recycled id is an arrival.
  const int id = s.a[3];
  s.twin.remove(id);
  EXPECT_EQ(s.twin.add({2, 4}), id);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  // Added and removed again before a solve: no change at all.
  s.twin.remove(s.twin.add({3}));
  s.twin.remove(s.b[4]);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
}

TEST(WaterFillWarmStart, DoubleCrossingAndEmptyPaths) {
  Staircase s;
  const int twice = s.twin.add({3, 3});
  const int empty = s.twin.add({});
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  EXPECT_EQ(s.twin.alloc.rate_bps(empty), 0.0);
  s.twin.remove(twice);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  s.twin.add({4, 2, 4});
  s.twin.remove(s.b[2]);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  s.twin.remove(empty);
  s.twin.remove(s.a[4]);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
}

TEST(WaterFillWarmStart, SetCapacityMakesTheNextSolveCold) {
  Staircase s;
  s.twin.remove(s.a[3]);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  s.twin.set_capacity(2, 0.5e9);
  EXPECT_FALSE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  s.twin.remove(s.a[4]);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  s.twin.set_capacity(2, 3e9);
  s.twin.remove(s.b[4]);
  EXPECT_FALSE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
}

TEST(WaterFillWarmStart, CancelledSolveMakesTheNextOneCold) {
  Staircase s;
  const util::CancelToken token = util::CancelToken::armed();
  token.cancel();
  // A departure from round 3 would resume warm; the fill is abandoned at
  // its first poll, after the warm reseeding.
  s.twin.alloc.set_cancel(&token);
  s.twin.remove(s.a[3]);
  EXPECT_TRUE(s.twin.solve());
  s.twin.alloc.set_cancel(nullptr);
  s.twin.add({4});
  s.twin.remove(s.b[3]);
  EXPECT_FALSE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
  s.twin.remove(s.a[4]);
  EXPECT_TRUE(s.twin.solve());
  ASSERT_TRUE(s.twin.same());
}

TEST(WaterFillWarmStart, MatchesOnLongerRandomChurn) {
  // Longer churn over more links than WaterFillReference's, so solves
  // resume deep into the fill with links holding entries frozen in
  // several rounds, through both reseeds (most subflows refilling, or
  // few), whose residuals must subtract the rounds in order. Arbitrary
  // capacities only: with small integers the subtractions are exact in
  // any order.
  Rng rng(31);
  std::int64_t warm = 0;
  for (int instance = 0; instance < 2000; ++instance) {
    const int num_links = 1 + static_cast<int>(rng.next_below(40));
    std::vector<double> cap;
    for (int l = 0; l < num_links; ++l) {
      cap.push_back(1e9 * (0.5 + 99.5 * rng.next_double()));
    }
    WarmTwin twin(cap);
    std::vector<int> live;
    const int ops = 5 + static_cast<int>(rng.next_below(300));
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t kind = rng.next_below(10);
      if (kind < 5 || live.empty()) {
        std::vector<int> path;
        const int hops = static_cast<int>(rng.next_below(8));
        for (int h = 0; h < hops; ++h) {
          path.push_back(static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(num_links))));
        }
        if (rng.next_below(8) != 0) {
          std::sort(path.begin(), path.end());
          path.erase(std::unique(path.begin(), path.end()), path.end());
        }
        live.push_back(twin.add(path));
      } else if (kind < 8) {
        const std::size_t pick = rng.next_below(live.size());
        twin.remove(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else {
        const int link = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(num_links)));
        const double restored = cap[static_cast<std::size_t>(link)];
        twin.set_capacity(link, kind == 8 ? 0.0 : restored);
      }
      if (rng.next_below(4) != 0) twin.solve();
      ASSERT_TRUE(twin.same()) << "instance " << instance << " op " << op;
    }
    twin.solve();
    ASSERT_TRUE(twin.same()) << "instance " << instance << " final";
    warm += twin.alloc.warm_solves();
  }
  EXPECT_GT(warm, 0);
}

TEST(WaterFillWarmStart, MostFig9SerialSolvesAreWarm) {
  // The 96-host fig9 serial cell's subflows, added in flow order and
  // removed in a seeded random order, solving after each change.
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.type = topo::NetworkType::kSerialLow;
  spec.hosts = 96;
  spec.parallelism = 4;
  spec.seed = 1;
  const auto net = topo::build_network(spec);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  const FsimConfig config = exp::to_fsim_config(policy, 1'000'000);
  const lp::LinkIndex index(net);

  WarmTwin twin(index.capacity());
  Rng rng(util::job_seed(1, 0));
  std::vector<int> ids;
  const auto pairs = workload::permutation_pairs(net.num_hosts(), rng);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (const auto& path : choose_paths(net, config, pairs[i].first,
                                         pairs[i].second,
                                         static_cast<std::uint64_t>(i))) {
      ids.push_back(twin.add(index.to_global(path)));
      twin.solve();
      ASSERT_TRUE(twin.same()) << "add " << ids.size();
    }
  }
  rng.shuffle(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    twin.remove(ids[i]);
    twin.solve();
    ASSERT_TRUE(twin.same()) << "remove " << i;
  }
  EXPECT_GT(2 * twin.alloc.warm_solves(), twin.alloc.full_solves())
      << twin.alloc.warm_solves() << " of " << twin.alloc.full_solves()
      << " solves warm";
}

// --------------------------------------------------------- FluidSimulator

TEST(FluidSimulator, StaggeredArrivalsFollowAnalyticSchedule) {
  // Two 100 MB flows pinned to the same single path. B arrives at 4 ms.
  // At 100 Gb/s (12.5 GB/s): A alone drains 50 MB by t=4ms, then each gets
  // 6.25 GB/s; A's remaining 50 MB takes 8 ms (A ends at 12 ms), B then
  // finishes its remaining 50 MB alone in 4 ms (B ends at 16 ms).
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kSerialLow, 16, 1));
  ASSERT_DOUBLE_EQ(net.plane(0).link_rate_bps, 100e9);
  FsimConfig config;
  const auto paths = choose_paths(net, config, HostId{0}, HostId{1}, 7);
  ASSERT_EQ(paths.size(), 1u);

  FluidSimulator fluid(net, config);
  const std::uint64_t mb100 = 100'000'000;
  fluid.add_flow({HostId{0}, HostId{1}, mb100, 0}, {paths});
  fluid.add_flow({HostId{0}, HostId{1}, mb100, 4 * units::kMillisecond},
                 {paths});
  fluid.run();

  ASSERT_EQ(fluid.results().size(), 2u);
  const auto& a = fluid.results()[0];
  const auto& b = fluid.results()[1];
  EXPECT_NEAR(units::to_milliseconds(a.end), 12.0, 0.01);
  EXPECT_NEAR(units::to_milliseconds(b.end), 16.0, 0.01);
  EXPECT_NEAR(fluid.delivered_bytes(), 2.0 * mb100, 1.0);
}

TEST(FluidSimulator, ZeroByteAndUnroutableFlowsComplete) {
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kSerialLow, 16, 1));
  FluidSimulator fluid(net, {});
  fluid.add_flow({HostId{0}, HostId{1}, 0, units::kMicrosecond});
  // Explicitly pinned to no paths at all: completes with zero duration.
  fluid.add_flow({HostId{2}, HostId{3}, 1000, 0}, {});
  fluid.run();
  ASSERT_EQ(fluid.results().size(), 2u);
  EXPECT_EQ(fluid.results()[0].subflows, 0);
  for (const auto& r : fluid.results()) EXPECT_EQ(r.end, r.start);
}

// A failed plane zeroes its links' capacity: the subflows on it freeze at
// rate 0 until recovery. Those zero rates are max-min fair (a zero-capacity
// link is saturated), so the audit must pass clean through the outage.
TEST(FluidSimulator, PlaneFailureUnderAuditStaysMaxMinFair) {
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 16, 2));
  FsimConfig config;
  config.scheme = RouteScheme::kEcmpPlaneHash;
  FluidSimulator fluid(net, config);
  util::Audit audit;
  fluid.set_audit(&audit);
  Rng rng(17);
  for (const auto& [src, dst] :
       workload::permutation_pairs(net.num_hosts(), rng)) {
    fluid.add_flow({src, dst, 10'000'000, 0});
  }
  fluid.fail_plane(50 * units::kMicrosecond, 500 * units::kMicrosecond, 0);
  bool starved = false;  // saw plane-0 subflows held at rate 0
  fluid.set_control(20 * units::kMicrosecond, [&](SimTime) {
    const auto planes = fluid.active_subflow_planes();
    if (fluid.plane_down(0) &&
        std::count(planes.begin(), planes.end(), 0) > 0 &&
        fluid.plane_rate_bps(0) == 0.0) {
      starved = true;
    }
  });
  fluid.run();
  EXPECT_TRUE(starved);
  EXPECT_EQ(fluid.results().size(), 16u);
  EXPECT_GT(audit.checks(), 0u);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

// The route cache is an optimization, never a behavior change: for every
// scheme, a simulator with the cache enabled, one with the cache in
// pass-through mode (PNET_ROUTE_CACHE=off equivalent), and one fed
// explicitly pinned choose_paths() results must produce byte-identical
// flow results. This pins FluidSimulator::route() to choose_paths().
TEST(FluidSimulator, RouteCacheOnOffAndPinnedPathsAgree) {
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 16, 2));
  for (const RouteScheme scheme :
       {RouteScheme::kEcmpPlaneHash, RouteScheme::kShortestPlane,
        RouteScheme::kKspMultipath}) {
    FsimConfig config;
    config.scheme = scheme;
    config.k = 4;

    Rng rng(11);
    std::vector<FlowSpec> specs;
    for (int i = 0; i < 200; ++i) {
      const HostId src{static_cast<std::int32_t>(rng.next_below(16))};
      HostId dst{static_cast<std::int32_t>(rng.next_below(16))};
      if (dst == src) dst = HostId{(dst.v + 1) % 16};
      specs.push_back({src, dst, 1'000'000 + 1000 * rng.next_below(64),
                       static_cast<SimTime>(i) * units::kMicrosecond});
    }

    FluidSimulator cached(
        net, config, std::make_shared<routing::RouteCache>(true));
    FluidSimulator uncached(
        net, config, std::make_shared<routing::RouteCache>(false));
    FluidSimulator pinned(net, config);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      cached.add_flow(specs[i]);
      uncached.add_flow(specs[i]);
      pinned.add_flow(specs[i],
                      choose_paths(net, config, specs[i].src, specs[i].dst,
                                   static_cast<std::uint64_t>(i)));
    }
    cached.run();
    uncached.run();
    pinned.run();

    ASSERT_EQ(cached.results().size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& a = cached.results()[i];
      const auto& b = uncached.results()[i];
      const auto& c = pinned.results()[i];
      EXPECT_EQ(a.end, b.end) << to_string(scheme) << " flow " << i;
      EXPECT_EQ(a.end, c.end) << to_string(scheme) << " flow " << i;
      EXPECT_EQ(a.subflows, b.subflows);
      EXPECT_EQ(a.subflows, c.subflows);
      EXPECT_EQ(a.hops, b.hops);
      EXPECT_EQ(a.hops, c.hops);
    }
    // The cache actually cached: candidate sets are per-pair, so with 200
    // flows over <=240 pairs the enabled cache must see some reuse, and
    // the pass-through cache must see none.
    EXPECT_GT(cached.route_cache().stats().hits, 0u) << to_string(scheme);
    EXPECT_EQ(uncached.route_cache().stats().hits, 0u);
  }
}

// Steady-state permutation: the fluid max-min *minimum* rate must equal
// the LP max-concurrent-flow alpha (same fixed single path per commodity,
// demand = one plane's link rate). GK is an epsilon-approximation, so the
// tolerance is a few percent.
void expect_min_rate_matches_alpha(topo::NetworkType type, int hosts,
                                   int planes) {
  const auto net = topo::build_network(fat_tree_spec(type, hosts, planes));
  FsimConfig config;
  config.scheme = RouteScheme::kEcmpPlaneHash;

  Rng rng(3);
  const auto pairs = workload::permutation_pairs(net.num_hosts(), rng);
  const lp::LinkIndex index(net);
  std::vector<lp::Commodity> commodities;
  FluidSimulator fluid(net, config);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    auto paths = choose_paths(net, config, pairs[i].first, pairs[i].second,
                              static_cast<std::uint64_t>(i));
    ASSERT_EQ(paths.size(), 1u);
    lp::Commodity commodity;
    commodity.demand = net.plane(0).link_rate_bps;
    commodity.paths.push_back(index.to_global(paths.front()));
    commodities.push_back(std::move(commodity));
    fluid.add_flow({pairs[i].first, pairs[i].second, 1'000'000'000, 0},
                   std::move(paths));
  }
  fluid.run_until(0);  // admit everything, settle rates
  ASSERT_EQ(fluid.active_flows(), static_cast<int>(pairs.size()));

  lp::McfOptions options;
  options.epsilon = 0.02;
  const auto lp_result =
      lp::max_concurrent_flow(index.capacity(), commodities, options);
  ASSERT_GT(lp_result.alpha, 0.0);
  ASSERT_LE(lp_result.alpha, 1.0 + 1e-9);

  const double min_frac =
      fluid.min_rate_bps() / net.plane(0).link_rate_bps;
  EXPECT_NEAR(min_frac, lp_result.alpha, 0.05 * lp_result.alpha)
      << topo::to_string(type) << " hosts=" << hosts;
  // Max-min can only improve on the LP's common fraction for the rest of
  // the flows; the total must dominate alpha * total demand.
  EXPECT_GE(fluid.total_rate_bps(),
            lp_result.alpha * net.plane(0).link_rate_bps *
                static_cast<double>(pairs.size()) * (1.0 - 0.05));
}

TEST(FsimCrossLp, PermutationMinRateMatchesAlphaK4Serial) {
  expect_min_rate_matches_alpha(topo::NetworkType::kSerialLow, 16, 1);
}

TEST(FsimCrossLp, PermutationMinRateMatchesAlphaK4Parallel) {
  expect_min_rate_matches_alpha(topo::NetworkType::kParallelHomogeneous, 16,
                                4);
}

TEST(FsimCrossLp, PermutationMinRateMatchesAlphaK8Serial) {
  expect_min_rate_matches_alpha(topo::NetworkType::kSerialLow, 128, 1);
}

TEST(FsimCrossLp, PermutationMinRateMatchesAlphaK8Parallel) {
  expect_min_rate_matches_alpha(topo::NetworkType::kParallelHomogeneous, 128,
                                4);
}

// FCT cross-validation against the packet simulator: identical pinned
// paths and start times in both engines, bulk 50 MB flows (slow start and
// queueing delay are then a small fraction of the FCT). The fluid model
// has no slow start, no ACK-path load and no retransmits, so means diverge
// by several percent; 15% is the documented envelope (DESIGN.md). The
// workloads keep every link below full saturation — when a lone packet-sim
// flow tries to run a link at exactly 100%, foreign ACK streams (~2.7%
// reverse-path load) push it into a loss/RTO cycle no fluid model
// represents; that divergence is documented, not asserted against.
void expect_fct_tracks_packet_sim(
    const topo::NetworkSpec& spec,
    const std::vector<FlowSpec>& specs,
    const std::vector<std::vector<routing::Path>>& paths) {
  const auto net = topo::build_network(spec);
  FluidSimulator fluid(net, {});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    fluid.add_flow(specs[i], paths[i]);
  }
  fluid.run();
  const std::vector<double> fluid_fcts = fluid.fct_us();

  core::PolicyConfig policy;
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;  // bulk-transfer buffers
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});
  std::vector<double> packet_fcts;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    harness.factory().tcp_flow(
        specs[i].src, specs[i].dst, paths[i].front(), specs[i].bytes,
        specs[i].start, [&packet_fcts](const sim::FlowRecord& r) {
          packet_fcts.push_back(units::to_microseconds(r.end - r.start));
        });
  }
  harness.run();
  ASSERT_EQ(packet_fcts.size(), fluid_fcts.size());

  auto mean = [](const std::vector<double>& v) {
    RunningStats s;
    for (double x : v) s.add(x);
    return s.mean();
  };
  const double fluid_mean = mean(fluid_fcts);
  const double packet_mean = mean(packet_fcts);
  EXPECT_NEAR(fluid_mean, packet_mean, 0.15 * packet_mean)
      << "fluid " << fluid_mean << " us vs packet " << packet_mean << " us";
}

TEST(FsimCrossPacket, PermutationFctTracksPacketSimSerial) {
  // k=4 serial fat tree permutation: single-path ECMP collisions make the
  // fabric links genuine shared bottlenecks.
  const auto spec = fat_tree_spec(topo::NetworkType::kSerialLow, 16, 1);
  const auto net = topo::build_network(spec);
  FsimConfig config;
  Rng rng(5);
  std::vector<FlowSpec> specs;
  std::vector<std::vector<routing::Path>> paths;
  for (const auto& [src, dst] :
       workload::permutation_pairs(net.num_hosts(), rng)) {
    const auto i = static_cast<std::uint64_t>(specs.size());
    paths.push_back(choose_paths(net, config, src, dst, i));
    specs.push_back({src, dst, 50'000'000,
                     static_cast<SimTime>(
                         rng.next_below(10 * units::kMicrosecond))});
  }
  expect_fct_tracks_packet_sim(spec, specs, paths);
}

TEST(FsimCrossPacket, SharedBottleneckFctTracksPacketSimParallel) {
  // 4-plane fat tree, two senders per receiver pinned to the same plane:
  // each receiver's plane downlink is a 2-way shared bottleneck, sender
  // links run at half rate, and every flow exercises the multi-plane path
  // machinery.
  const auto spec =
      fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 16, 4);
  const auto net = topo::build_network(spec);
  Rng rng(7);
  std::vector<FlowSpec> specs;
  std::vector<std::vector<routing::Path>> paths;
  for (int r = 0; r < 8; ++r) {
    for (const int src : {r, (r + 1) % 8}) {
      const auto i = static_cast<std::uint64_t>(specs.size());
      auto ecmp = routing::ecmp_paths_in_plane(net, r % 4, HostId{src},
                                               HostId{8 + r}, 64);
      ASSERT_FALSE(ecmp.empty());
      const int pick = routing::ecmp_pick(mix64(i * 77 + 5),
                                          static_cast<int>(ecmp.size()));
      paths.push_back({ecmp[static_cast<std::size_t>(pick)]});
      specs.push_back({HostId{src}, HostId{8 + r}, 50'000'000,
                       static_cast<SimTime>(
                           rng.next_below(10 * units::kMicrosecond))});
    }
  }
  expect_fct_tracks_packet_sim(spec, specs, paths);
}

// ----------------------------------------------------------------- sweep

TEST(Sweep, SeedsAreDeterministicAndDecorrelated) {
  EXPECT_EQ(util::job_seed(1, 0), util::job_seed(1, 0));
  EXPECT_NE(util::job_seed(1, 0), util::job_seed(1, 1));
  EXPECT_NE(util::job_seed(1, 0), util::job_seed(2, 0));
}

TEST(Sweep, ResultsIdenticalAcrossThreadCounts) {
  std::vector<std::uint64_t> jobs;
  for (std::uint64_t i = 0; i < 8; ++i) jobs.push_back(i);
  auto job_fn = [](const std::uint64_t& job) {
    const auto net = topo::build_network(
        fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 16, 4,
                      util::job_seed(9, job)));
    FluidSimulator fluid(net, {});
    Rng rng(util::job_seed(9, job));
    for (const auto& [src, dst] :
         workload::permutation_pairs(net.num_hosts(), rng)) {
      fluid.add_flow({src, dst, 1'000'000,
                      static_cast<SimTime>(
                          rng.next_below(10 * units::kMicrosecond))});
    }
    fluid.run();
    return fluid.fct_us();
  };
  const auto serial = util::parallel_map(jobs, job_fn, 1);
  const auto threaded = util::parallel_map(jobs, job_fn, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), threaded[i].size()) << "job " << i;
    for (std::size_t f = 0; f < serial[i].size(); ++f) {
      EXPECT_EQ(serial[i][f], threaded[i][f]) << "job " << i << " flow " << f;
    }
  }
}

// A fig9 fluid cell with telemetry on reports the allocator's water-fills,
// warm water-fills and fast paths; the same trial driven by hand shows
// they are the allocator's own counts.
TEST(FluidSimulator, TelemetryCarriesTheWaterFillCounts) {
  exp::ExperimentSpec spec;
  spec.name = "fig9-fsim-serial";
  spec.engine = exp::EngineKind::kFsim;
  spec.topo.topo = topo::TopoKind::kJellyfish;
  spec.topo.type = topo::NetworkType::kSerialLow;
  spec.topo.hosts = 96;
  spec.topo.parallelism = 4;
  spec.topo.seed = 1;
  spec.policy.policy = core::RoutingPolicy::kShortestPlane;
  spec.workload.flow_bytes = 1'000'000;
  spec.workload.rounds = 1;
  spec.seed = 1;
  spec.trials = 1;
  exp::EngineContext ctx;
  ctx.telemetry.sample_every = 20 * units::kMicrosecond;
  const auto cell = exp::FluidEngine().run(spec, ctx);
  ASSERT_EQ(cell.trials.size(), 1u);
  const auto& metrics = cell.trials[0].metrics;

  const auto net = topo::build_network(spec.topo);
  const auto telemetry = exp::make_telemetry(ctx.telemetry);
  FluidSimulator fluid(
      net, exp::to_fsim_config(spec.policy, spec.workload.flow_bytes));
  fluid.set_telemetry(telemetry.get());
  Rng rng(util::job_seed(spec.seed, 0));
  for (const auto& [src, dst] :
       workload::permutation_pairs(net.num_hosts(), rng)) {
    fluid.add_flow({src, dst, spec.workload.flow_bytes,
                    static_cast<SimTime>(rng.next_below(
                        static_cast<std::uint64_t>(
                            spec.workload.start_jitter)))});
  }
  fluid.run();
  ASSERT_EQ(fluid.fct_us(), cell.trials[0].fct_us) << "not the same trial";
  const MaxMinAllocator& alloc = fluid.allocator();
  EXPECT_EQ(metrics.at("tm/water_fills"),
            static_cast<double>(alloc.full_solves()));
  EXPECT_EQ(metrics.at("tm/warm_water_fills"),
            static_cast<double>(alloc.warm_solves()));
  EXPECT_EQ(metrics.at("tm/fast_paths"),
            static_cast<double>(alloc.fast_paths()));
  EXPECT_GT(alloc.warm_solves(), 0);

  // Telemetry off: no tm/ counters.
  const auto plain = exp::FluidEngine().run(spec, {});
  EXPECT_EQ(plain.trials[0].metrics.count("tm/water_fills"), 0u);
}

// Scale guard: a k=8 fat tree (128 hosts) with thousands of flows must be
// quick — the whole point of the fluid model. (The k=16 / 10k-flow demo
// lives in bench_fsim_crossval; this is the CI-sized version.)
TEST(FluidSimulator, ThousandsOfFlowsRunQuickly) {
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 128, 4));
  FluidSimulator fluid(net, {});
  Rng rng(11);
  int flows = 0;
  for (int round = 0; round < 16; ++round) {
    for (const auto& [src, dst] :
         workload::permutation_pairs(net.num_hosts(), rng)) {
      fluid.add_flow({src, dst, 2'000'000,
                      static_cast<SimTime>(round) * 50 * units::kMicrosecond +
                          static_cast<SimTime>(
                              rng.next_below(20 * units::kMicrosecond))});
      ++flows;
    }
  }
  fluid.run();
  EXPECT_EQ(static_cast<int>(fluid.results().size()), flows);
  EXPECT_GE(flows, 2000);
}

}  // namespace
}  // namespace pnet::fsim
