// TCP NewReno endpoints, htsim-style.
//
// TcpSrc implements slow start, congestion avoidance, duplicate-ACK fast
// retransmit/fast recovery (NewReno partial-ACK handling), and a
// retransmission timeout with the 10 ms minimum RTO the paper tunes to
// (section 5.1.2, following DCTCP). Loss recovery after an RTO is
// go-back-N, as in htsim.
//
// Protected virtual hooks (pull_bytes, on_window_increase, on_delivered)
// let MptcpSubflow reuse the entire machinery while coupling its congestion
// window and pulling bytes from a shared connection-level stream.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/packet.hpp"

namespace pnet::sim {

struct TcpParams {
  std::uint32_t mss = 1500;       // wire bytes per data packet
  std::uint32_t ack_size = 40;
  std::uint32_t initial_window_packets = 10;
  std::uint64_t max_cwnd_bytes = 2'000'000;
  /// Limited slow start (RFC 3742): above this cwnd, slow start grows by at
  /// most ~limited_ss_threshold/2 per RTT, bounding the overshoot loss burst
  /// when probing past the bottleneck in shallow-buffer fabrics.
  std::uint64_t limited_ss_threshold = 100 * 1500;
  /// NewReno partial-ACK recovery resends up to this many segments at once.
  /// Tail-drop losses are contiguous runs, so a small burst fills several
  /// holes per RTT instead of NewReno's classic one-per-RTT crawl.
  int recovery_burst_segments = 4;
  SimTime min_rto = 10 * units::kMillisecond;   // tuned per the paper
  SimTime initial_rto = 10 * units::kMillisecond;
  /// Consecutive RTOs with no forward progress before the source declares
  /// its path suspect (§3.4 graceful degradation): a plain TcpSrc with a
  /// repath callback installed re-routes onto a fresh path; an MPTCP
  /// subflow is abandoned and its bytes reinjected via its siblings.
  int path_suspect_threshold = 3;
  /// DCTCP mode (Alizadeh et al. [6], the paper's §6.5 incast direction):
  /// the sender keeps an EWMA of the fraction of CE-marked bytes and cuts
  /// cwnd by alpha/2 once per window instead of halving on loss signals.
  /// Requires an ECN threshold on the queues (SimConfig::ecn_threshold).
  bool dctcp = false;
  /// DCTCP g parameter (EWMA gain), expressed as a shift: alpha update uses
  /// g = 1/16 as in the DCTCP paper.
  int dctcp_gain_shift = 4;
  /// Model MPTCP's MP_JOIN staggering: secondary subflows only become
  /// usable one handshake (~2x the primary path's one-way latency) after
  /// the connection starts. Off by default (htsim-style instant subflows);
  /// turn on to reproduce the real-stack effect the paper cites ([15, 16,
  /// 49]: "MPTCP can often hurt short flows").
  bool mptcp_staggered_join = false;
};

class TcpSrc;

/// Receiver endpoint: reassembles the byte stream and ACKs every segment.
class TcpSink : public PacketSink {
 public:
  TcpSink(EventQueue& events, PacketPool& pool, const TcpParams& params)
      : events_(events), pool_(pool), params_(params) {}

  /// `ack_route` must terminate at the TcpSrc.
  void set_ack_route(const Route* ack_route) { ack_route_ = ack_route; }

  void receive(Packet& packet) override;

  [[nodiscard]] std::uint64_t cumulative_acked() const { return cum_; }

 private:
  EventQueue& events_;
  PacketPool& pool_;
  TcpParams params_;
  const Route* ack_route_ = nullptr;

  std::uint64_t cum_ = 0;  // next expected byte
  /// Out-of-order ranges as disjoint [start, end) pairs sorted by start.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ooo_;
};

class TcpSrc : public EventSource, public PacketSink {
 public:
  using CompletionCallback = std::function<void(TcpSrc&)>;
  /// Asked for a replacement data route when the current path is suspect
  /// (path_suspect_threshold consecutive RTOs) or the health monitor
  /// reports the path's plane down. Returns nullptr to stay put. The
  /// callback owns the heavy lifting — building the new route pair and
  /// re-pointing the sink's ACK route — so the source only swaps pointers.
  using RepathCallback = std::function<const Route*(TcpSrc&)>;

  TcpSrc(EventQueue& events, PacketPool& pool, FlowId flow,
         const TcpParams& params)
      : events_(events), pool_(pool), flow_(flow), params_(params),
        cwnd_(static_cast<std::uint64_t>(params.initial_window_packets) *
              params.mss),
        rto_(params.initial_rto) {}

  /// Wires the connection and schedules the first transmission.
  void connect(const Route* data_route, SimTime start_time);

  /// Fixed number of bytes to transfer; required for plain TCP flows
  /// (MPTCP subflows pull bytes from their connection instead).
  void set_flow_size(std::uint64_t bytes) { flow_size_ = bytes; }
  void set_completion_callback(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }
  void set_repath_callback(RepathCallback cb) { repath_cb_ = std::move(cb); }

  // PacketSink: ACK arrivals.
  void receive(Packet& packet) override;
  // EventSource: start-of-flow and RTO wake-ups.
  void do_next_event() override;

  [[nodiscard]] FlowId flow() const { return flow_; }
  [[nodiscard]] SimTime start_time() const { return start_time_; }
  [[nodiscard]] SimTime completion_time() const { return completion_time_; }
  [[nodiscard]] bool complete() const { return completion_time_ >= 0; }
  [[nodiscard]] std::uint64_t cwnd() const { return cwnd_; }
  [[nodiscard]] std::uint64_t acked_bytes() const { return snd_una_; }
  [[nodiscard]] int retransmits() const { return retransmits_; }
  [[nodiscard]] int timeouts() const { return timeouts_; }
  [[nodiscard]] int repaths() const { return repaths_; }
  [[nodiscard]] SimTime smoothed_rtt() const { return srtt_; }
  [[nodiscard]] const Route* data_route() const { return data_route_; }
  [[nodiscard]] const TcpParams& params() const { return params_; }

  /// Stops all transmission (used when an MPTCP connection gives up on a
  /// dead subflow and reinjects its bytes elsewhere). Reversible: revive()
  /// restarts the sender once its path recovers.
  void abandon();
  /// Reverses abandon() after the path recovered (§3.4 re-establishment):
  /// resets the congestion/RTT state to connection-fresh values and resumes
  /// go-back-N from the first unacked byte.
  void revive();
  /// Link-status-driven repath: the health monitor detected this flow's
  /// plane down, so move now instead of waiting out path_suspect_threshold
  /// RTOs. No-op without a repath callback (or if it declines).
  void force_repath();
  /// Installs a replacement route built elsewhere — the coordinator-phase
  /// half of a repath the callback deferred to a shard barrier, or a
  /// control-plane repin (see FlowFactory) — and resumes sending on it, as
  /// force_repath does. No-op on nullptr, mirroring a declining callback.
  void apply_repath(const Route* route);
  [[nodiscard]] bool abandoned() const { return abandoned_; }
  /// Bytes granted to this sender but not yet acked.
  [[nodiscard]] std::uint64_t unacked_assigned_bytes() const {
    return assigned_ - snd_una_;
  }
  /// Wakes an idle sender to pull freshly available bytes.
  void kick() {
    if (!complete() && !abandoned_ && started_) send_available();
  }

 protected:
  /// Grants up to `want` new bytes to transmit. Plain TCP grants from the
  /// fixed flow size; MPTCP subflows pull from the shared connection.
  virtual std::uint64_t pull_bytes(std::uint64_t want);
  /// Congestion-window growth on new-data ACKs (NewReno by default; the
  /// MPTCP subflow overrides congestion avoidance with Linked Increases).
  virtual void on_window_increase(std::uint64_t bytes_acked);
  /// Progress notification: `bytes` newly acked (cumulative advance).
  virtual void on_delivered(std::uint64_t bytes);
  /// Called after each retransmission timeout with the consecutive-timeout
  /// count (resets on forward progress). MPTCP uses this to detect dead
  /// subflows.
  virtual void on_timeout(int consecutive_timeouts);

  void slow_start_or_default_increase(std::uint64_t bytes_acked);
  /// Raises cwnd by an externally computed amount (capped); used by coupled
  /// congestion controllers.
  void apply_increase(std::uint64_t bytes) {
    cwnd_ = std::min(cwnd_ + bytes, params_.max_cwnd_bytes);
  }
  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }

 private:
  /// Installs `route` as the data route and restarts cleanly on it.
  void switch_route(const Route* route);
  void send_available();
  void send_segment(std::uint64_t seq, std::uint32_t size, bool retransmit);
  void dctcp_on_ack(std::uint64_t bytes_acked, bool ecn_echo);
  void handle_nack(std::uint64_t seq);
  void handle_rto();
  void arm_rto();
  void update_rtt(SimTime sample);
  void check_complete();

  EventQueue& events_;
  PacketPool& pool_;
  FlowId flow_;
  TcpParams params_;

  const Route* data_route_ = nullptr;
  SimTime start_time_ = 0;
  bool started_ = false;

  // Sender state (bytes).
  std::uint64_t flow_size_ = 0;     // 0 = unbounded (subflow mode)
  std::uint64_t assigned_ = 0;      // bytes granted for transmission
  std::uint64_t highest_sent_ = 0;  // next new byte to send
  std::uint64_t snd_una_ = 0;       // lowest unacked byte
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_ = 0x7FFFFFFFFFFF;
  int dupacks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint64_t recover_ = 0;
  bool abandoned_ = false;
  int consecutive_timeouts_ = 0;
  /// Highest byte already retransmitted in the current recovery episode;
  /// partial-ACK bursts resume here so no byte is resent twice per episode.
  std::uint64_t recovery_next_ = 0;
  /// NACK (trim) congestion response: at most one window cut per window of
  /// data — the edge of the window when the last cut was applied.
  std::uint64_t nack_epoch_end_ = 0;

  // RTO machinery.
  SimTime rto_;
  SimTime srtt_ = -1;
  SimTime rttvar_ = 0;
  SimTime rto_deadline_ = -1;
  int backoff_ = 1;

  // DCTCP state: bytes acked (total / CE-marked) in the current
  // observation window, the EWMA alpha in [0, 1], and the window edge at
  // which the next alpha update + congestion response happens.
  std::uint64_t dctcp_acked_ = 0;
  std::uint64_t dctcp_marked_ = 0;
  double dctcp_alpha_ = 0.0;
  std::uint64_t dctcp_window_end_ = 0;

  // Stats.
  int retransmits_ = 0;
  int timeouts_ = 0;
  int repaths_ = 0;
  SimTime completion_time_ = -1;
  CompletionCallback on_complete_;
  RepathCallback repath_cb_;
};

}  // namespace pnet::sim
