// Progressive-filling max-min fair rate allocation over a fixed capacitated
// link set — the rate model of the flow-level fluid simulator (fsim).
//
// Each registered *subflow* is a fluid demand pinned to one path (a list of
// global link ids; see lp::LinkIndex). solve() water-fills: every active
// subflow's rate rises uniformly until some link saturates, the subflows
// crossing that link freeze at the bottleneck level, and the fill continues
// among the survivors. The result is the (unweighted) max-min fair
// allocation; its minimum rate equals the max-concurrent-flow LP optimum
// when each commodity has a single fixed path, which is what
// tests/fsim_test.cpp cross-validates against lp::max_concurrent_flow.
//
// The allocator is built for incremental use by an event loop: add/remove
// are O(path length) and keep per-link occupancy and the link -> subflow
// adjacency up to date; a solve is only marked necessary when the change
// can affect other subflows (an arriving or departing subflow whose links
// are otherwise unused takes a fast path that touches nothing else).
//
// A solve is warm-started: it records the round in which each subflow froze
// and each round's level, and the next solve resumes at the first round
// the changes since can reach (k0, DESIGN.md §5b). A departure cannot move
// any round before the one its subflow froze in; an arrival moves the
// first round at which one of its links would sit within the cutoff. The
// subflows frozen before k0 keep their rates, and each link of a subflow to
// refill is reseeded with the residual the cold fill had at k0 (the same
// subtractions, in round order). The first solve, a set_capacity() and a
// cancelled solve make the next one cold (k0 = 0). A cold solve costs
// O(active links + active subflows) to seed the fill. A warm one costs
// O(active subflows) plus a walk of each arriving subflow's links' entries,
// and then, when at least two thirds of the subflows refill,
// O(active links + frozen subflows' hops) to replay the frozen levels over
// every link, else O(refilled subflows' hops) plus an entry walk of each
// reopened link that holds a frozen entry. Each round is then a scan of
// the links that still carry an unfrozen subflow (their fair shares are
// cached) plus O(path length) per newly frozen subflow.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/audit.hpp"
#include "util/cancel.hpp"

namespace pnet::fsim {

/// Checks that `rates_bps[i]` is a max-min fair allocation of subflows
/// pinned to `paths[i]` over links of capacity `capacity_bps`:
///  * feasibility — every rate >= 0 and every link's summed rate within
///    its capacity;
///  * the bottleneck property — every subflow with a non-empty path crosses
///    a saturated link on which no subflow has a higher rate.
/// Saturation and rate comparisons allow x * 1e-6 + 1e-3 bps of rounding.
/// Subflows with an empty path are unconstrained and only checked for a
/// non-negative rate. Each breach is filed with audit.fail().
void audit_max_min(std::span<const double> capacity_bps,
                   std::span<const std::vector<int>> paths,
                   std::span<const double> rates_bps, util::Audit& audit);

class MaxMinAllocator {
 public:
  /// `capacity_bps` is indexed by global link id (lp::LinkIndex layout).
  explicit MaxMinAllocator(std::vector<double> capacity_bps);

  /// Registers a subflow pinned to `links`; returns its handle. If the
  /// subflow shares no link with any active subflow, its rate is set
  /// immediately (min capacity along the path) without dirtying the rest.
  int add(std::vector<int> links);
  /// Unregisters a subflow. Ids are recycled.
  void remove(int id);

  /// Recomputes every active rate by water-filling, resuming at the first
  /// round the changes since the last solve can reach. No-op when no change
  /// since the last solve could have affected more than its own subflow.
  void solve();

  /// Re-capacitates one link (fsim's fault model: a failed plane's links go
  /// to 0, recovery restores them). Always dirties the allocator — subflows
  /// crossing the link freeze at rate 0 in the next water-fill and thaw
  /// when capacity returns. The next solve is cold.
  void set_capacity(int link, double bps) {
    capacity_[static_cast<std::size_t>(link)] = bps;
    dirty_ = true;
    cold_ = true;
  }
  [[nodiscard]] double capacity(int link) const {
    return capacity_[static_cast<std::size_t>(link)];
  }

  /// Rate of an active subflow. Stale until solve() if dirty().
  [[nodiscard]] double rate_bps(int id) const {
    return rates_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int active() const {
    return static_cast<int>(live_ids_.size());
  }
  [[nodiscard]] bool dirty() const { return dirty_; }

  /// Diagnostics: water-fills (warm or cold) vs O(path) fast-path
  /// add/removes, and the water-fills that resumed past round 0.
  [[nodiscard]] std::int64_t full_solves() const { return full_solves_; }
  [[nodiscard]] std::int64_t warm_solves() const { return warm_solves_; }
  [[nodiscard]] std::int64_t fast_paths() const { return fast_paths_; }

  /// Attaches a cooperative-cancellation token: solve() abandons its
  /// water-fill (leaving partial rates — the simulation is being torn
  /// down, not continued) once it fires, and the next solve is cold.
  /// Polled every 16 fill rounds.
  void set_cancel(const util::CancelToken* cancel) { cancel_ = cancel; }

  /// Runs audit_max_min over the active subflows. Call after a solve(); a
  /// dirty allocator is skipped (rates are declared stale).
  void audit_check(util::Audit& audit) const;

 private:
  /// One (subflow, link) pair of a path, threaded onto its link's list.
  struct Entry {
    int sub = -1;
    int next = -1;  // next entry on the same link, -1 at the tail
    int prev = -1;  // previous entry on the same link, -1 at the head
  };

  /// round_ of a subflow that did not freeze in the last solve.
  static constexpr int kUnfrozen = std::numeric_limits<int>::max();

  /// Water-fill state of one active link.
  struct Slot {
    double rem = 0.0;   // remaining capacity
    int unfrozen = 0;   // unfrozen entries
    int open_pos = -1;  // index in open_, -1 once closed
  };

  std::vector<double> capacity_;

  // Per subflow id. A free id has an empty path and rate 0, so
  // audit_max_min can read paths_ and rates_ as they are.
  std::vector<std::vector<int>> paths_;
  std::vector<std::vector<int>> path_entries_;  // entry id per path hop
  std::vector<double> rates_;
  std::vector<int> round_;     // fill round it froze in, kUnfrozen if none
  std::vector<int> live_pos_;  // index into live_ids_, -1 when free
  std::vector<int> free_ids_;
  std::vector<int> live_ids_;

  // Link -> subflow adjacency, patched by add/remove: each link's entries
  // form an intrusive doubly linked list. Links with at least one entry
  // are the solve's dense slots.
  std::vector<Entry> entries_;
  std::vector<int> free_entries_;
  std::vector<int> link_head_;       // first entry per link, -1 when idle
  std::vector<int> active_on_link_;  // entries per link
  std::vector<int> slot_links_;      // dense slot -> link id
  std::vector<int> slot_of_link_;    // link id -> dense slot (-1 idle)

  bool dirty_ = false;
  // The last solve's record and the changes since it. levels_[k] is round
  // k's level; removed_round_ is the earliest round_ of a subflow removed
  // since; added_ lists the ids added since (some may be gone again).
  bool cold_ = true;  // no usable record: the next solve starts at round 0
  std::vector<double> levels_;
  int removed_round_ = kUnfrozen;
  std::vector<int> added_;
  std::int64_t full_solves_ = 0;
  std::int64_t warm_solves_ = 0;
  std::int64_t fast_paths_ = 0;
  const util::CancelToken* cancel_ = nullptr;

  // Solve scratch, persistent so steady-state re-solves do not allocate.
  std::vector<Slot> slots_;
  std::vector<int> open_;           // slots with an unfrozen subflow
  std::vector<double> open_share_;  // cached fair share, parallel to open_
  std::vector<int> saturated_;      // per-round bottleneck slots
  std::vector<int> touched_;        // per-round slots a freeze crossed
  std::vector<int> fixed_rounds_;   // one link's entries frozen before k0
  std::vector<int> round_count_;    // warm seed: frozen subflows per round
  std::vector<int> by_round_;       // warm seed: frozen subflows by round

  /// Fills fixed_rounds_ with the rounds of `link`'s entries that froze
  /// before `limit`, in ascending order.
  void collect_fixed_rounds(int link, int limit);
  /// Round the next solve resumes at: the earliest round that a removal or
  /// an arrival since the last solve can reach.
  [[nodiscard]] int resume_round();
  /// First round before `limit` at which `link`, with every current entry
  /// that is not frozen by then, would sit within that round's cutoff;
  /// `limit` if none does.
  [[nodiscard]] int first_reached_round(int link, int limit);
  /// The cold fill's remaining capacity of `link` at the start of round
  /// `k0`: its capacity minus the level of each entry frozen before `k0`,
  /// subtracted in round order.
  [[nodiscard]] double residual_at(int link, int k0);
  /// Seed the fill: every active link open (cold), or the links of the
  /// subflows to refill from round `k0` (warm). Returns the open slot
  /// count and sets `remaining` to the subflows left to freeze.
  std::size_t seed_cold(std::size_t& remaining);
  std::size_t seed_warm(int k0, std::size_t& remaining);
  /// The two warm reseeds, once seed_warm has reset the refilled
  /// subflows' rounds and counted the frozen ones per round.
  std::size_t reseed_all_links(int k0);
  std::size_t reseed_refilled_links(int k0);
};

}  // namespace pnet::fsim
