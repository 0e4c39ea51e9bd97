// MPTCP with Linked-Increases coupled congestion control (Wischik et al.,
// NSDI'11 [43]) — the multipath transport the paper pairs with K-shortest-
// paths routing.
//
// A connection owns K subflows, each a full TcpSrc running over its own
// path (typically one of the K globally-shortest paths across dataplanes).
// Subflows pull bytes from the shared connection stream on demand, do
// uncoupled slow start, and couple congestion avoidance through the LIA
// alpha so the aggregate is fair to single-path TCP at shared bottlenecks
// while still using the capacity of disjoint paths.
#pragma once

#include <memory>
#include <vector>

#include "sim/tcp.hpp"
#include "util/enum_names.hpp"

namespace pnet::sim {

class MptcpConnection;

class MptcpSubflow final : public TcpSrc {
 public:
  MptcpSubflow(EventQueue& events, PacketPool& pool, FlowId flow,
               const TcpParams& params, MptcpConnection& connection,
               int index)
      : TcpSrc(events, pool, flow, params), connection_(connection),
        index_(index) {}

  [[nodiscard]] int index() const { return index_; }

 protected:
  std::uint64_t pull_bytes(std::uint64_t want) override;
  void on_window_increase(std::uint64_t bytes_acked) override;
  void on_delivered(std::uint64_t bytes) override;
  void on_timeout(int consecutive_timeouts) override;

 private:
  friend class MptcpConnection;

  MptcpConnection& connection_;
  int index_;
  /// Bytes this subflow will re-deliver after a revive that were already
  /// delivered by siblings (reinjected while it was abandoned); deducted
  /// from report_delivered so the connection never counts a byte twice.
  std::uint64_t duplicate_debt_ = 0;
};

/// Congestion-coupling policy across subflows.
enum class Coupling {
  /// RFC 6356 Linked Increases: fair to single-path TCP at shared
  /// bottlenecks; conservative (slow ramp) on disjoint paths.
  kLia,
  /// Independent NewReno per subflow: maximally aggressive; equivalent to
  /// opening K parallel TCP connections. Kept as an ablation knob.
  kUncoupled,
};

[[nodiscard]] util::EnumNames<Coupling> name_table(Coupling);

class MptcpConnection {
 public:
  using CompletionCallback = std::function<void(MptcpConnection&)>;

  /// `spare` hands over the subflow objects of a retired connection (see
  /// release_subflows); add_subflow() re-constructs them in place before
  /// it allocates new ones.
  MptcpConnection(EventQueue& events, PacketPool& pool, FlowId flow,
                  const TcpParams& params, std::uint64_t flow_size,
                  Coupling coupling = Coupling::kLia,
                  std::vector<std::unique_ptr<MptcpSubflow>> spare = {})
      : events_(events), pool_(pool), flow_(flow), params_(params),
        flow_size_(flow_size), coupling_(coupling), spare_(std::move(spare)) {}

  [[nodiscard]] Coupling coupling() const { return coupling_; }

  /// Adds one subflow; the caller wires routes/sinks and starts it via
  /// TcpSrc::connect. Subflows must all be added before the flow starts.
  MptcpSubflow& add_subflow();

  void set_completion_callback(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  [[nodiscard]] FlowId flow() const { return flow_; }
  [[nodiscard]] std::uint64_t flow_size() const { return flow_size_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_; }
  [[nodiscard]] bool complete() const { return completion_time_ >= 0; }
  [[nodiscard]] SimTime completion_time() const { return completion_time_; }
  [[nodiscard]] int num_subflows() const {
    return static_cast<int>(subflows_.size());
  }
  [[nodiscard]] MptcpSubflow& subflow(int index) {
    return *subflows_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] int total_retransmits() const;
  [[nodiscard]] int total_timeouts() const;

  /// True when every subflow's pending wake-ups would return without
  /// acting (TcpSrc::idle), so a complete connection can do nothing more.
  [[nodiscard]] bool idle() const;
  /// Retires every subflow (TcpSrc::retire).
  void retire();
  /// Moves out every subflow object, spares included, for the connection
  /// re-constructed in this one's place: wake-ups of a retired flow may
  /// still point at them, so they are never freed while the factory lives.
  [[nodiscard]] std::vector<std::unique_ptr<MptcpSubflow>> release_subflows();

  // --- interface used by MptcpSubflow ---
  std::uint64_t pull(std::uint64_t want);
  void report_delivered(std::uint64_t bytes);
  /// LIA increase for one subflow's new-data ACK, in congestion avoidance.
  [[nodiscard]] std::uint64_t lia_increase(const MptcpSubflow& subflow,
                                           std::uint64_t bytes_acked) const;
  /// A subflow has hit repeated RTOs with no progress: abandon it and
  /// reinject its unacked bytes through the surviving subflows (the
  /// connection-level retransmission real MPTCP performs). No-op when it is
  /// the last live subflow — then retrying in place is all there is.
  void handle_stuck_subflow(MptcpSubflow& subflow);
  /// The reverse, on plane recovery (§3.4): re-establish an abandoned
  /// subflow instead of leaving it dead forever. Bytes still waiting in the
  /// reinject pool are reclaimed by the revived subflow; bytes siblings
  /// already took over become duplicate debt so they are not double
  /// counted when the revived subflow re-delivers them.
  void revive_subflow(MptcpSubflow& subflow);

 private:
  EventQueue& events_;
  PacketPool& pool_;
  FlowId flow_;
  TcpParams params_;
  std::uint64_t flow_size_;
  Coupling coupling_;
  std::uint64_t assigned_ = 0;
  std::uint64_t delivered_ = 0;
  /// Bytes reclaimed from abandoned subflows, served by pull() first.
  std::uint64_t reinject_pool_ = 0;
  SimTime completion_time_ = -1;
  CompletionCallback on_complete_;
  std::vector<std::unique_ptr<MptcpSubflow>> subflows_;
  /// Retired subflow objects waiting to be re-constructed by add_subflow.
  std::vector<std::unique_ptr<MptcpSubflow>> spare_;
};

}  // namespace pnet::sim
