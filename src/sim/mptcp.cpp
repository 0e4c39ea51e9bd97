#include "sim/mptcp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace pnet::sim {

namespace {

constexpr util::EnumName<Coupling> kCouplingNames[] = {
    {Coupling::kLia, "lia"},
    {Coupling::kUncoupled, "uncoupled"},
};

}  // namespace

util::EnumNames<Coupling> name_table(Coupling) { return kCouplingNames; }

// ----------------------------------------------------------- MptcpSubflow

std::uint64_t MptcpSubflow::pull_bytes(std::uint64_t want) {
  return connection_.pull(want);
}

void MptcpSubflow::on_window_increase(std::uint64_t bytes_acked) {
  if (in_slow_start() || connection_.coupling() == Coupling::kUncoupled) {
    // MPTCP subflows slow-start independently (RFC 6356 semantics);
    // uncoupled mode stays independent in congestion avoidance too.
    slow_start_or_default_increase(bytes_acked);
    return;
  }
  const std::uint64_t increase = connection_.lia_increase(*this, bytes_acked);
  // cwnd_ adjustments live in TcpSrc; apply through the protected helper by
  // simulating the default growth path with a custom amount.
  apply_increase(increase);
}

void MptcpSubflow::on_delivered(std::uint64_t bytes) {
  // Bytes of an abandoned subflow were reinjected elsewhere; do not count a
  // straggling late ACK twice. After a revive, the first duplicate_debt_
  // bytes were likewise already delivered by siblings.
  if (abandoned()) return;
  const std::uint64_t dup = std::min(bytes, duplicate_debt_);
  duplicate_debt_ -= dup;
  if (bytes > dup) connection_.report_delivered(bytes - dup);
}

void MptcpSubflow::on_timeout(int consecutive_timeouts) {
  if (consecutive_timeouts >= params().path_suspect_threshold) {
    connection_.handle_stuck_subflow(*this);
  }
}

// -------------------------------------------------------- MptcpConnection

MptcpSubflow& MptcpConnection::add_subflow() {
  const int index = static_cast<int>(subflows_.size());
  if (spare_.empty()) {
    subflows_.push_back(std::make_unique<MptcpSubflow>(
        events_, pool_, flow_, params_, *this, index));
  } else {
    // Re-construct a retired subflow in place, keeping its generation so
    // the old flow's wake-ups stay no-ops.
    subflows_.push_back(std::move(spare_.back()));
    spare_.pop_back();
    MptcpSubflow* sf = subflows_.back().get();
    const std::uint32_t generation = sf->generation();
    std::destroy_at(sf);
    std::construct_at(sf, events_, pool_, flow_, params_, *this, index);
    sf->set_generation(generation);
  }
  return *subflows_.back();
}

bool MptcpConnection::idle() const {
  return std::all_of(subflows_.begin(), subflows_.end(),
                     [](const auto& sf) { return sf->idle(); });
}

void MptcpConnection::retire() {
  for (const auto& sf : subflows_) sf->retire();
}

std::vector<std::unique_ptr<MptcpSubflow>>
MptcpConnection::release_subflows() {
  std::vector<std::unique_ptr<MptcpSubflow>> all = std::move(spare_);
  for (auto& sf : subflows_) all.push_back(std::move(sf));
  subflows_.clear();
  spare_.clear();
  return all;
}

std::uint64_t MptcpConnection::pull(std::uint64_t want) {
  if (reinject_pool_ > 0) {
    const std::uint64_t granted = std::min(want, reinject_pool_);
    reinject_pool_ -= granted;
    return granted;
  }
  const std::uint64_t remaining = flow_size_ - assigned_;
  const std::uint64_t granted = std::min(want, remaining);
  assigned_ += granted;
  return granted;
}

void MptcpConnection::handle_stuck_subflow(MptcpSubflow& subflow) {
  if (subflow.abandoned()) return;
  int live = 0;
  for (const auto& sf : subflows_) live += !sf->abandoned();
  if (live <= 1) return;  // last path standing: keep retrying in place
  const std::uint64_t stuck = subflow.unacked_assigned_bytes();
  subflow.abandon();
  reinject_pool_ += stuck;
  for (const auto& sf : subflows_) sf->kick();
}

void MptcpConnection::revive_subflow(MptcpSubflow& subflow) {
  if (!subflow.abandoned() || complete()) return;
  const std::uint64_t stuck = subflow.unacked_assigned_bytes();
  // Reclaim what is still sitting in the reinject pool; the rest was (or
  // will be) delivered by siblings and must not be counted again when this
  // subflow's go-back-N re-delivers it.
  const std::uint64_t reclaimed = std::min(reinject_pool_, stuck);
  reinject_pool_ -= reclaimed;
  subflow.duplicate_debt_ += stuck - reclaimed;
  subflow.revive();
}

void MptcpConnection::report_delivered(std::uint64_t bytes) {
  delivered_ += bytes;
  if (delivered_ >= flow_size_ && !complete()) {
    completion_time_ = events_.now();
    if (on_complete_) on_complete_(*this);
  }
}

std::uint64_t MptcpConnection::lia_increase(const MptcpSubflow& subflow,
                                            std::uint64_t bytes_acked) const {
  // RFC 6356 / NSDI'11 Linked Increases:
  //   alpha = cwnd_total * max_r(cwnd_r / rtt_r^2) / (sum_r cwnd_r/rtt_r)^2
  //   per-ACK increase on subflow r:
  //     min(alpha * bytes_acked * MSS / cwnd_total,
  //         bytes_acked * MSS / cwnd_r)       (the single-TCP cap)
  double cwnd_total = 0.0;
  double max_term = 0.0;
  double sum_term = 0.0;
  bool have_rtt = true;
  for (const auto& sf : subflows_) {
    const double cwnd = static_cast<double>(sf->cwnd());
    cwnd_total += cwnd;
    const SimTime srtt = sf->smoothed_rtt();
    if (srtt <= 0) {
      have_rtt = false;
      continue;
    }
    const double rtt = static_cast<double>(srtt);
    max_term = std::max(max_term, cwnd / (rtt * rtt));
    sum_term += cwnd / rtt;
  }

  const double mss = static_cast<double>(params_.mss);
  const double acked = static_cast<double>(bytes_acked);
  const double own_cwnd = static_cast<double>(subflow.cwnd());
  const double tcp_cap = acked * mss / own_cwnd;
  if (!have_rtt || sum_term <= 0.0 || cwnd_total <= 0.0) {
    // Not enough RTT data yet: behave like uncoupled NewReno.
    return static_cast<std::uint64_t>(std::max(1.0, tcp_cap));
  }
  const double alpha = cwnd_total * max_term / (sum_term * sum_term);
  const double coupled = alpha * acked * mss / cwnd_total;
  return static_cast<std::uint64_t>(std::max(1.0, std::min(coupled, tcp_cap)));
}

int MptcpConnection::total_retransmits() const {
  int total = 0;
  for (const auto& sf : subflows_) total += sf->retransmits();
  return total;
}

int MptcpConnection::total_timeouts() const {
  int total = 0;
  for (const auto& sf : subflows_) total += sf->timeouts();
  return total;
}

}  // namespace pnet::sim
