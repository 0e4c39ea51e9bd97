#include "fsim/max_min.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

namespace pnet::fsim {

namespace {

/// A link's fair share of what it has left. The one expression the level
/// and the cutoff test read, so a cached share equals a fresh one.
double fair_share(double rem, int unfrozen) {
  return std::max(rem, 0.0) / static_cast<double>(unfrozen);
}

/// The highest share that still freezes at `level`: the 1e-12 relative
/// slack absorbs the rounding of the shares' running subtractions. Never
/// decreases as `level` grows (every step rounds monotonically).
double cutoff_of(double level) {
  return level + level * 1e-12 + std::numeric_limits<double>::min();
}

}  // namespace

MaxMinAllocator::MaxMinAllocator(std::vector<double> capacity_bps)
    : capacity_(std::move(capacity_bps)),
      link_head_(capacity_.size(), -1),
      active_on_link_(capacity_.size(), 0),
      slot_of_link_(capacity_.size(), -1) {}

int MaxMinAllocator::add(std::vector<int> links) {
  int id;
  if (free_ids_.empty()) {
    id = static_cast<int>(paths_.size());
    paths_.emplace_back();
    path_entries_.emplace_back();
    rates_.push_back(0.0);
    round_.push_back(kUnfrozen);
    live_pos_.push_back(-1);
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  const auto i = static_cast<std::size_t>(id);
  paths_[i] = std::move(links);
  live_pos_[i] = static_cast<int>(live_ids_.size());
  live_ids_.push_back(id);
  added_.push_back(id);

  bool alone = true;
  double cap = std::numeric_limits<double>::infinity();
  std::vector<int>& hops = path_entries_[i];
  for (int link : paths_[i]) {
    const auto l = static_cast<std::size_t>(link);
    int e;
    if (free_entries_.empty()) {
      e = static_cast<int>(entries_.size());
      entries_.emplace_back();
    } else {
      e = free_entries_.back();
      free_entries_.pop_back();
    }
    entries_[static_cast<std::size_t>(e)] = {id, link_head_[l], -1};
    if (link_head_[l] >= 0) {
      entries_[static_cast<std::size_t>(link_head_[l])].prev = e;
    }
    link_head_[l] = e;
    hops.push_back(e);
    if (active_on_link_[l]++ > 0) {
      alone = false;
    } else {
      slot_of_link_[l] = static_cast<int>(slot_links_.size());
      slot_links_.push_back(link);
    }
    cap = std::min(cap, capacity_[l]);
  }
  if (alone && !dirty_) {
    // No shared link: nobody else's bottleneck moved, so the new subflow
    // simply gets its path's narrowest link.
    rates_[i] = paths_[i].empty() ? 0.0 : cap;
    ++fast_paths_;
  } else {
    dirty_ = true;
  }
  return id;
}

void MaxMinAllocator::remove(int id) {
  const auto i = static_cast<std::size_t>(id);
  assert(live_pos_[i] >= 0);
  bool alone = true;
  std::vector<int>& path = paths_[i];
  std::vector<int>& hops = path_entries_[i];
  for (std::size_t h = 0; h < path.size(); ++h) {
    const auto l = static_cast<std::size_t>(path[h]);
    const Entry& entry = entries_[static_cast<std::size_t>(hops[h])];
    if (entry.prev >= 0) {
      entries_[static_cast<std::size_t>(entry.prev)].next = entry.next;
    } else {
      link_head_[l] = entry.next;
    }
    if (entry.next >= 0) {
      entries_[static_cast<std::size_t>(entry.next)].prev = entry.prev;
    }
    free_entries_.push_back(hops[h]);
    if (--active_on_link_[l] > 0) {
      alone = false;
    } else {
      // Last entry gone: swap-remove the link from the dense slots.
      const int slot = slot_of_link_[l];
      const int last = slot_links_.back();
      slot_links_[static_cast<std::size_t>(slot)] = last;
      slot_of_link_[static_cast<std::size_t>(last)] = slot;
      slot_links_.pop_back();
      slot_of_link_[l] = -1;
    }
  }
  // Swap-remove from the live list, fixing the moved subflow's position.
  const int last = live_ids_.back();
  live_ids_[static_cast<std::size_t>(live_pos_[i])] = last;
  live_pos_[static_cast<std::size_t>(last)] = live_pos_[i];
  live_ids_.pop_back();
  live_pos_[i] = -1;
  path.clear();
  hops.clear();
  rates_[i] = 0.0;
  // Fast path or not, the next solve cannot replay the round this
  // subflow froze in.
  removed_round_ = std::min(removed_round_, round_[i]);
  round_[i] = kUnfrozen;
  free_ids_.push_back(id);
  if (alone) {
    ++fast_paths_;  // departure frees capacity nobody was contending for
  } else {
    dirty_ = true;
  }
}

void MaxMinAllocator::collect_fixed_rounds(int link, int limit) {
  fixed_rounds_.clear();
  for (int e = link_head_[static_cast<std::size_t>(link)]; e >= 0;
       e = entries_[static_cast<std::size_t>(e)].next) {
    const int round = round_[static_cast<std::size_t>(
        entries_[static_cast<std::size_t>(e)].sub)];
    if (round < limit) fixed_rounds_.push_back(round);
  }
  std::sort(fixed_rounds_.begin(), fixed_rounds_.end());
}

int MaxMinAllocator::first_reached_round(int link, int limit) {
  // Replays the link through rounds 0..limit-1 with its current entries:
  // before round k it has lost the level of each entry frozen before k.
  // Entries, not subflows: a path may cross the link twice.
  collect_fixed_rounds(link, limit);
  double rem = capacity_[static_cast<std::size_t>(link)];
  int unfrozen = active_on_link_[static_cast<std::size_t>(link)];
  std::size_t next = 0;
  for (int k = 0; k < limit; ++k) {
    for (; next < fixed_rounds_.size() && fixed_rounds_[next] < k; ++next) {
      rem -= levels_[static_cast<std::size_t>(fixed_rounds_[next])];
      --unfrozen;
    }
    if (fair_share(rem, unfrozen) <=
        cutoff_of(levels_[static_cast<std::size_t>(k)])) {
      return k;
    }
  }
  return limit;
}

int MaxMinAllocator::resume_round() {
  // A removed subflow that froze in round r crossed only links whose share
  // was above the cutoff in every earlier round; without it those shares
  // only grow, so rounds before r replay. Rounds before an arrival's first
  // reached round replay as well: none of its links comes within a cutoff.
  int k0 = std::min(removed_round_, static_cast<int>(levels_.size()));
  for (const int id : added_) {
    const auto i = static_cast<std::size_t>(id);
    if (live_pos_[i] < 0) continue;  // removed again before this solve
    for (const int link : paths_[i]) {
      if (k0 == 0) return 0;
      k0 = first_reached_round(link, k0);
    }
  }
  return k0;
}

std::size_t MaxMinAllocator::seed_cold(std::size_t& remaining) {
  // Every active link starts open, with its full capacity shared by all of
  // its entries.
  const std::size_t nslots = slot_links_.size();
  for (std::size_t s = 0; s < nslots; ++s) {
    const auto link = static_cast<std::size_t>(slot_links_[s]);
    Slot& slot = slots_[s];
    slot.rem = capacity_[link];
    slot.unfrozen = active_on_link_[link];
    slot.open_pos = static_cast<int>(s);
    open_[s] = static_cast<int>(s);
    open_share_[s] = fair_share(slot.rem, slot.unfrozen);
  }
  std::fill(round_.begin(), round_.end(), kUnfrozen);
  remaining = live_ids_.size();
  return nslots;
}

std::size_t MaxMinAllocator::seed_warm(int k0, std::size_t& remaining) {
  // Subflows frozen before k0 keep their rate and round; the others refill.
  // round_count_[r + 1] counts the frozen subflows of round r.
  round_count_.assign(static_cast<std::size_t>(k0) + 1, 0);
  remaining = 0;
  for (const int id : live_ids_) {
    int& round = round_[static_cast<std::size_t>(id)];
    if (round < k0) {
      ++round_count_[static_cast<std::size_t>(round) + 1];
    } else {
      round = kUnfrozen;
      ++remaining;
    }
  }
  // Both reseeds give each open link the cold fill's residual. Replaying
  // the frozen subflows over every active link costs O(active links +
  // frozen hops) and wins when most subflows refill (the KSP cells, ~78%);
  // opening only the refilled subflows' links costs O(refilled hops) plus
  // an entry walk per link that holds a frozen entry, and wins otherwise
  // (the serial cells, ~45%).
  return 3 * remaining >= 2 * live_ids_.size() ? reseed_all_links(k0)
                                               : reseed_refilled_links(k0);
}

std::size_t MaxMinAllocator::reseed_all_links(int k0) {
  // Every active link starts as in a cold fill, then the frozen subflows
  // take their levels off it round by round (counting-sorted by round):
  // the cold fill's subtractions, in its order.
  for (int r = 0; r < k0; ++r) {
    round_count_[static_cast<std::size_t>(r) + 1] +=
        round_count_[static_cast<std::size_t>(r)];
  }
  by_round_.resize(static_cast<std::size_t>(round_count_.back()));
  for (const int id : live_ids_) {
    const int round = round_[static_cast<std::size_t>(id)];
    if (round == kUnfrozen) continue;
    by_round_[static_cast<std::size_t>(
        round_count_[static_cast<std::size_t>(round)]++)] = id;
  }
  const std::size_t nslots = slot_links_.size();
  for (std::size_t s = 0; s < nslots; ++s) {
    const auto link = static_cast<std::size_t>(slot_links_[s]);
    slots_[s].rem = capacity_[link];
    slots_[s].unfrozen = active_on_link_[link];
  }
  for (const int id : by_round_) {
    const double level =
        levels_[static_cast<std::size_t>(round_[static_cast<std::size_t>(id)])];
    for (const int hop : paths_[static_cast<std::size_t>(id)]) {
      Slot& slot = slots_[static_cast<std::size_t>(
          slot_of_link_[static_cast<std::size_t>(hop)])];
      slot.rem -= level;
      --slot.unfrozen;
    }
  }
  // The links left with an unfrozen entry open, in slot order.
  std::size_t open = 0;
  for (std::size_t s = 0; s < nslots; ++s) {
    Slot& slot = slots_[s];
    if (slot.unfrozen == 0) {
      slot.open_pos = -1;
      continue;
    }
    slot.open_pos = static_cast<int>(open);
    open_[open] = static_cast<int>(s);
    open_share_[open] = fair_share(slot.rem, slot.unfrozen);
    ++open;
  }
  return open;
}

std::size_t MaxMinAllocator::reseed_refilled_links(int k0) {
  // The refilled subflows' links open, counting their entries (open_
  // doubles as the membership test: a stale open_pos does not point back
  // at its slot).
  std::size_t open = 0;
  for (const int id : live_ids_) {
    const auto i = static_cast<std::size_t>(id);
    if (round_[i] != kUnfrozen) continue;
    for (const int hop : paths_[i]) {
      const int s = slot_of_link_[static_cast<std::size_t>(hop)];
      Slot& slot = slots_[static_cast<std::size_t>(s)];
      const auto j = static_cast<std::size_t>(slot.open_pos);
      if (slot.open_pos >= 0 && j < open && open_[j] == s) {
        ++slot.unfrozen;
        continue;
      }
      slot.open_pos = static_cast<int>(open);
      slot.unfrozen = 1;
      open_[open++] = s;
    }
  }
  // A link whose entries all refill has its full capacity left; the others
  // lose the cold fill's subtractions before k0.
  for (std::size_t j = 0; j < open; ++j) {
    Slot& slot = slots_[static_cast<std::size_t>(open_[j])];
    const int link = slot_links_[static_cast<std::size_t>(open_[j])];
    slot.rem = slot.unfrozen < active_on_link_[static_cast<std::size_t>(link)]
                   ? residual_at(link, k0)
                   : capacity_[static_cast<std::size_t>(link)];
    open_share_[j] = fair_share(slot.rem, slot.unfrozen);
  }
  return open;
}

double MaxMinAllocator::residual_at(int link, int k0) {
  // The cold fill subtracts round 0's level once per entry frozen in round
  // 0, then round 1's, and so on; the order within a round does not
  // matter (every subtraction in it is the same), the order of the rounds
  // does.
  collect_fixed_rounds(link, k0);
  double rem = capacity_[static_cast<std::size_t>(link)];
  for (const int round : fixed_rounds_) {
    rem -= levels_[static_cast<std::size_t>(round)];
  }
  return rem;
}

void MaxMinAllocator::solve() {
  if (!dirty_) return;
  dirty_ = false;
  ++full_solves_;

  const int k0 = cold_ ? 0 : resume_round();
  const std::size_t nslots = slot_links_.size();
  slots_.resize(nslots);
  open_.resize(nslots);
  open_share_.resize(nslots);
  std::size_t remaining = 0;
  std::size_t open =
      k0 > 0 ? seed_warm(k0, remaining) : seed_cold(remaining);
  if (k0 > 0) ++warm_solves_;
  cold_ = false;
  removed_round_ = kUnfrozen;
  added_.clear();
  levels_.resize(static_cast<std::size_t>(k0));

  // Water-fill. Each round finds the lowest fair-share level among links
  // that still carry unfrozen subflows and freezes every unfrozen subflow
  // on the links within the cutoff, all at that level. The round's level,
  // cutoff and frozen set do not depend on the order the open slots or a
  // link's entries are visited in: a minimum is order-free, and each slot
  // sees the same count of identical `rem -= level` subtractions. So only
  // the shares of the slots a freeze crossed need recomputing.
  std::uint64_t rounds = 0;
  while (remaining > 0) {
    if (cancel_ != nullptr && (rounds++ & 15) == 0 && cancel_->cancelled()) {
      cold_ = true;  // partial rates are fine: the trial is being abandoned
      break;
    }
    // One pass finds the level and keeps every open slot within the
    // cutoff of the running minimum. The cutoff only falls as the minimum
    // does, so this keeps a superset of the round's bottlenecks; when the
    // minimum drops below the cutoff of everything kept so far, the kept
    // slots are dropped at once, and the filter below drops the rest.
    double level = std::numeric_limits<double>::infinity();
    double cutoff = level;
    saturated_.clear();
    for (std::size_t j = 0; j < open; ++j) {
      const double share = open_share_[j];
      if (!(share <= cutoff)) continue;
      if (share < level) {
        const double below = cutoff_of(share);
        if (level > below) saturated_.clear();  // all kept shares >= level
        level = share;
        cutoff = below;
      }
      saturated_.push_back(static_cast<int>(j));
    }
    if (!std::isfinite(level)) break;  // no constrained subflow left
    std::erase_if(saturated_, [&](int j) {
      return open_share_[static_cast<std::size_t>(j)] > cutoff;
    });
    for (int& j : saturated_) j = open_[static_cast<std::size_t>(j)];
    const int round = static_cast<int>(levels_.size());
    levels_.push_back(level);

    touched_.clear();
    for (int bottleneck : saturated_) {
      const auto link = static_cast<std::size_t>(
          slot_links_[static_cast<std::size_t>(bottleneck)]);
      for (int e = link_head_[link]; e >= 0;
           e = entries_[static_cast<std::size_t>(e)].next) {
        const auto id =
            static_cast<std::size_t>(entries_[static_cast<std::size_t>(e)].sub);
        if (round_[id] != kUnfrozen) continue;
        round_[id] = round;
        rates_[id] = level;
        --remaining;
        for (int hop : paths_[id]) {
          const int s = slot_of_link_[static_cast<std::size_t>(hop)];
          Slot& slot = slots_[static_cast<std::size_t>(s)];
          slot.rem -= level;
          --slot.unfrozen;
          touched_.push_back(s);
        }
      }
    }
    // Refresh the touched shares; close the slots whose last unfrozen
    // subflow froze (swap-remove from the open list).
    for (int s : touched_) {
      Slot& slot = slots_[static_cast<std::size_t>(s)];
      const int j = slot.open_pos;
      if (j < 0) continue;  // closed by an earlier duplicate
      if (slot.unfrozen > 0) {
        open_share_[static_cast<std::size_t>(j)] =
            fair_share(slot.rem, slot.unfrozen);
        continue;
      }
      --open;
      const int moved = open_[open];
      open_[static_cast<std::size_t>(j)] = moved;
      open_share_[static_cast<std::size_t>(j)] = open_share_[open];
      slots_[static_cast<std::size_t>(moved)].open_pos = j;
      slot.open_pos = -1;
    }
  }
}

void MaxMinAllocator::audit_check(util::Audit& audit) const {
  if (dirty_) return;  // rates are declared stale until the next solve()
  audit_max_min(capacity_, paths_, rates_, audit);
}

void audit_max_min(std::span<const double> capacity_bps,
                   std::span<const std::vector<int>> paths,
                   std::span<const double> rates_bps, util::Audit& audit) {
  audit.note_check();
  // Relative epsilon absorbs water-fill rounding; the absolute floor covers
  // zero-capacity links and zero rates.
  const auto tolerance = [](double x) { return x * 1e-6 + 1e-3; };
  std::vector<double> load(capacity_bps.size(), 0.0);
  std::vector<double> top(capacity_bps.size(), 0.0);  // highest rate per link
  for (std::size_t f = 0; f < paths.size(); ++f) {
    const double rate = rates_bps[f];
    if (rate < 0.0) {
      audit.fail("max-min rate negative: subflow " + std::to_string(f) +
                 " rate=" + std::to_string(rate) + " bps");
    }
    for (int link : paths[f]) {
      const auto l = static_cast<std::size_t>(link);
      load[l] += rate;
      top[l] = std::max(top[l], rate);
    }
  }
  for (std::size_t l = 0; l < capacity_bps.size(); ++l) {
    if (load[l] > capacity_bps[l] + tolerance(capacity_bps[l])) {
      audit.fail("max-min allocation above capacity on link " +
                 std::to_string(l) + ": " + std::to_string(load[l]) + " > " +
                 std::to_string(capacity_bps[l]) + " bps");
    }
  }
  for (std::size_t f = 0; f < paths.size(); ++f) {
    if (paths[f].empty()) continue;
    const double rate = rates_bps[f];
    const bool bottlenecked =
        std::any_of(paths[f].begin(), paths[f].end(), [&](int link) {
          const auto l = static_cast<std::size_t>(link);
          return load[l] >= capacity_bps[l] - tolerance(capacity_bps[l]) &&
                 top[l] <= rate + tolerance(rate);
        });
    if (!bottlenecked) {
      audit.fail("max-min rate not bottlenecked: subflow " +
                 std::to_string(f) + " rate=" + std::to_string(rate) +
                 " bps crosses no saturated link where it is the largest");
    }
  }
}

}  // namespace pnet::fsim
