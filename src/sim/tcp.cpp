#include "sim/tcp.hpp"

#include <algorithm>
#include <cassert>

namespace pnet::sim {

// ---------------------------------------------------------------- TcpSink

void TcpSink::receive(Packet& packet) {
  assert(!packet.is_ack);
  if (!take(packet, events_.audit())) {
    pool_.free(&packet);
    return;
  }
  const std::uint64_t start = packet.seq;
  const std::uint64_t end = packet.seq + packet.size_bytes;
  const SimTime ts_echo = packet.retransmitted ? -1 : packet.ts_echo;
  const FlowId flow = packet.flow;
  const int subflow = packet.subflow;
  const bool ecn_ce = packet.ecn_ce;
  const bool trimmed = packet.trimmed;
  pool_.free(&packet);

  if (trimmed) {
    // The payload was cut in the fabric: NACK the exact segment so the
    // sender retransmits immediately instead of waiting for dupACKs/RTO.
    assert(ack_route_ != nullptr);
    Packet* nack = pool_.allocate();
    nack->flow = flow;
    nack->is_ack = true;
    nack->is_nack = true;
    nack->seq = start;  // the missing segment
    nack->ack_seq = cum_;
    nack->size_bytes = params_.ack_size;
    nack->subflow = subflow;
    nack->route = ack_route_;
    nack->next_hop = 0;
    ++sent_;
    nack->forward();
    return;
  }

  // Merge [start, end) into the reassembly state.
  if (start <= cum_) {
    cum_ = std::max(cum_, end);
    // Absorb the now-contiguous prefix of out-of-order ranges in one erase.
    auto absorbed = ooo_.begin();
    for (; absorbed != ooo_.end() && absorbed->first <= cum_; ++absorbed) {
      cum_ = std::max(cum_, absorbed->second);
    }
    ooo_.erase(ooo_.begin(), absorbed);
  } else {
    auto it = std::lower_bound(
        ooo_.begin(), ooo_.end(), start,
        [](const auto& range, std::uint64_t s) { return range.first < s; });
    if (it == ooo_.end() || it->first != start) {
      ooo_.insert(it, {start, end});
    }
  }

  // One ACK per data segment, carrying the cumulative next-expected byte.
  assert(ack_route_ != nullptr);
  Packet* ack = pool_.allocate();
  ack->flow = flow;
  ack->is_ack = true;
  ack->ack_seq = cum_;
  ack->size_bytes = params_.ack_size;
  ack->ts_echo = ts_echo;
  ack->subflow = subflow;
  // Per-packet ECN echo (DCTCP's accurate feedback, a simplification of
  // its delayed-ACK state machine that is exact at one ACK per segment).
  ack->ecn_echo = ecn_ce;
  ack->route = ack_route_;
  ack->next_hop = 0;
  ++sent_;
  ack->forward();
}

// ----------------------------------------------------------------- TcpSrc

void TcpSrc::connect(const Route* data_route, SimTime start_time) {
  data_route_ = data_route;
  start_time_ = start_time;
  events_.schedule_at(start_time, this);
}

std::uint64_t TcpSrc::pull_bytes(std::uint64_t want) {
  if (flow_size_ == 0) return 0;  // nothing configured
  const std::uint64_t remaining = flow_size_ - assigned_;
  return std::min<std::uint64_t>(want, remaining);
}

void TcpSrc::slow_start_or_default_increase(std::uint64_t bytes_acked) {
  if (in_slow_start()) {
    if (cwnd_ <= params_.limited_ss_threshold) {
      cwnd_ += bytes_acked;
    } else {
      // RFC 3742 limited slow start: growth tapers to ~threshold/2 per RTT.
      cwnd_ += std::max<std::uint64_t>(
          1, bytes_acked * params_.limited_ss_threshold / (2 * cwnd_));
    }
  } else {
    cwnd_ += std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(params_.mss) * params_.mss / cwnd_);
  }
  cwnd_ = std::min(cwnd_, params_.max_cwnd_bytes);
}

void TcpSrc::on_window_increase(std::uint64_t bytes_acked) {
  slow_start_or_default_increase(bytes_acked);
}

void TcpSrc::on_delivered(std::uint64_t /*bytes*/) {}

void TcpSrc::on_timeout(int /*consecutive_timeouts*/) {}

void TcpSrc::abandon() {
  abandoned_ = true;
  rto_deadline_ = -1;
}

void TcpSrc::revive() {
  if (!abandoned_ || complete()) return;
  abandoned_ = false;
  // Connection-fresh state: the recovered path's congestion and RTT are
  // unknown, so slow-start from the initial window and resume go-back-N
  // from the first unacked byte.
  cwnd_ = static_cast<std::uint64_t>(params_.initial_window_packets) *
          params_.mss;
  ssthresh_ = 0x7FFFFFFFFFFF;
  in_fast_recovery_ = false;
  dupacks_ = 0;
  backoff_ = 1;
  consecutive_timeouts_ = 0;
  highest_sent_ = snd_una_;
  srtt_ = -1;
  rttvar_ = 0;
  rto_ = params_.initial_rto;
  rto_deadline_ = -1;
  if (started_) send_available();
}

void TcpSrc::switch_route(const Route* route) {
  data_route_ = route;
  ++repaths_;
  // The new path starts cold: respond to the implied loss (ssthresh cut),
  // restart from the initial window, and go-back-N onto the fresh route.
  ssthresh_ = std::max<std::uint64_t>(
      cwnd_ / 2, 2 * static_cast<std::uint64_t>(params_.mss));
  cwnd_ = static_cast<std::uint64_t>(params_.initial_window_packets) *
          params_.mss;
  highest_sent_ = snd_una_;
  in_fast_recovery_ = false;
  dupacks_ = 0;
  backoff_ = 1;
  consecutive_timeouts_ = 0;
  srtt_ = -1;
  rttvar_ = 0;
  rto_ = params_.initial_rto;
  rto_deadline_ = -1;
}

void TcpSrc::force_repath() {
  if (complete() || abandoned_ || !repath_cb_) return;
  apply_repath(repath_cb_(*this));
}

void TcpSrc::apply_repath(const Route* route) {
  if (route == nullptr) return;
  switch_route(route);
  // switch_route cleared the RTO deadline and rewound go-back-N: with the
  // old route's packets lost, a source that stayed silent here would never
  // wake again.
  if (started_) send_available();
}

void TcpSrc::receive(Packet& packet) {
  assert(packet.is_ack);
  if (!take(packet, events_.audit())) {
    pool_.free(&packet);
    return;
  }
  const std::uint64_t cum = packet.ack_seq;
  const SimTime ts_echo = packet.ts_echo;
  const bool ecn_echo = packet.ecn_echo;
  const bool is_nack = packet.is_nack;
  const std::uint64_t nack_seq = packet.seq;
  pool_.free(&packet);

  if (complete() || abandoned_) return;
  if (ts_echo >= 0) update_rtt(events_.now() - ts_echo);

  if (is_nack) {
    handle_nack(nack_seq);
    return;
  }

  if (cum > snd_una_) {
    const std::uint64_t bytes_acked = cum - snd_una_;
    if (params_.dctcp) dctcp_on_ack(bytes_acked, ecn_echo);
    snd_una_ = cum;
    // A late ACK can cover original transmissions sent before a go-back-N
    // reset pulled highest_sent_ back; resync so in-flight accounting never
    // underflows.
    highest_sent_ = std::max(highest_sent_, snd_una_);
    dupacks_ = 0;
    backoff_ = 1;
    consecutive_timeouts_ = 0;
    if (in_fast_recovery_) {
      if (cum >= recover_) {
        // Full ACK: leave fast recovery.
        in_fast_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ACK: resend a contiguous burst starting at the
        // recovery frontier (tail-drop losses are contiguous, so this fills
        // several holes per RTT without duplicating earlier resends),
        // deflate by the amount acked, inflate by one segment, stay in
        // recovery. The burst is paced by the ACK: one segment of credit
        // per MSS acked plus one to guarantee progress, so scattered-hole
        // recoveries do not blindly retransmit the whole window.
        const int credit = std::min<int>(
            params_.recovery_burst_segments,
            static_cast<int>(bytes_acked / params_.mss) + 1);
        std::uint64_t at = std::max(snd_una_, recovery_next_);
        for (int i = 0;
             i < credit && at < std::min(recover_, highest_sent_); ++i) {
          const auto size = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(params_.mss, highest_sent_ - at));
          send_segment(at, size, /*retransmit=*/true);
          at += size;
        }
        recovery_next_ = at;
        cwnd_ -= std::min(cwnd_, bytes_acked);
        cwnd_ += params_.mss;
        cwnd_ = std::max<std::uint64_t>(cwnd_, params_.mss);
      }
    } else {
      on_window_increase(bytes_acked);
    }
    on_delivered(bytes_acked);
    if (snd_una_ < highest_sent_) {
      arm_rto();
    } else {
      rto_deadline_ = -1;  // everything outstanding is acked
    }
    check_complete();
  } else if (highest_sent_ > snd_una_) {
    // Duplicate ACK.
    ++dupacks_;
    if (!in_fast_recovery_ && dupacks_ == 3) {
      ssthresh_ = std::max<std::uint64_t>(
          cwnd_ / 2, 2 * static_cast<std::uint64_t>(params_.mss));
      in_fast_recovery_ = true;
      recover_ = highest_sent_;
      cwnd_ = ssthresh_ + 3 * static_cast<std::uint64_t>(params_.mss);
      const auto size = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          params_.mss, highest_sent_ - snd_una_));
      send_segment(snd_una_, size, /*retransmit=*/true);
      recovery_next_ = snd_una_ + size;
      arm_rto();
    } else if (in_fast_recovery_) {
      cwnd_ += params_.mss;  // window inflation
      cwnd_ = std::min(cwnd_, params_.max_cwnd_bytes);
    }
  }
  if (!complete() && !abandoned_) send_available();
}

void TcpSrc::do_next_event() {
  if (!started_) {
    started_ = true;
    send_available();
    return;
  }
  if (complete() || abandoned_ || rto_deadline_ < 0) return;
  if (events_.now() >= rto_deadline_) {
    handle_rto();
  } else {
    events_.schedule_at(rto_deadline_, this);
  }
}

void TcpSrc::handle_nack(std::uint64_t seq) {
  if (seq < snd_una_ || seq >= highest_sent_) return;  // stale
  // Retransmit the trimmed segment immediately; apply one multiplicative
  // decrease per window of data (like NDP/CP: the trim IS the congestion
  // signal, no need to infer loss from duplicate ACKs).
  if (snd_una_ > nack_epoch_end_ || nack_epoch_end_ == 0) {
    ssthresh_ = std::max<std::uint64_t>(
        cwnd_ / 2, 2 * static_cast<std::uint64_t>(params_.mss));
    cwnd_ = ssthresh_;
    nack_epoch_end_ = highest_sent_;
  }
  const auto size = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(params_.mss, highest_sent_ - seq));
  send_segment(seq, size, /*retransmit=*/true);
  arm_rto();
}

void TcpSrc::handle_rto() {
  ++timeouts_;
  ++consecutive_timeouts_;
  ssthresh_ = std::max<std::uint64_t>(
      cwnd_ / 2, 2 * static_cast<std::uint64_t>(params_.mss));
  cwnd_ = params_.mss;
  in_fast_recovery_ = false;
  dupacks_ = 0;
  // Go-back-N: resume transmission from the first unacked byte.
  highest_sent_ = snd_una_;
  backoff_ = std::min(backoff_ * 2, 64);
  rto_deadline_ = -1;
  on_timeout(consecutive_timeouts_);
  if (!abandoned_ && repath_cb_ &&
      consecutive_timeouts_ >= params_.path_suspect_threshold) {
    // Path suspect: repeated RTOs with zero progress. Ask for a fresh path
    // (the callback consults the selector's current plane-health view).
    if (const Route* fresh = repath_cb_(*this)) switch_route(fresh);
  }
  if (!abandoned_) send_available();
}

void TcpSrc::arm_rto() {
  const SimTime timeout =
      (srtt_ >= 0 ? std::max(params_.min_rto, srtt_ + 4 * rttvar_)
                  : params_.initial_rto) *
      backoff_;
  const SimTime deadline = events_.now() + timeout;
  if (rto_deadline_ < 0 || deadline < rto_deadline_ ||
      events_.now() >= rto_deadline_) {
    rto_deadline_ = deadline;
    events_.schedule_at(deadline, this);
  } else {
    rto_deadline_ = deadline;  // wake already pending earlier; it re-arms
  }
}

void TcpSrc::update_rtt(SimTime sample) {
  if (srtt_ < 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const SimTime err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
}

void TcpSrc::send_available() {
  if (abandoned_) return;
  while (true) {
    const std::uint64_t in_flight = highest_sent_ - snd_una_;
    if (in_flight + params_.mss > cwnd_) break;
    std::uint64_t available = assigned_ - highest_sent_;
    if (available == 0) {
      const std::uint64_t granted = pull_bytes(params_.mss);
      if (granted == 0) break;
      assigned_ += granted;
      available = granted;
    }
    const auto size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(params_.mss, available));
    send_segment(highest_sent_, size, /*retransmit=*/false);
    highest_sent_ += size;
  }
  if (highest_sent_ > snd_una_ && rto_deadline_ < 0) arm_rto();
}

void TcpSrc::send_segment(std::uint64_t seq, std::uint32_t size,
                          bool retransmit) {
  assert(size > 0);
  Packet* packet = pool_.allocate();
  packet->flow = flow_;
  packet->seq = seq;
  packet->size_bytes = size;
  packet->is_ack = false;
  packet->retransmitted = retransmit;
  packet->ts_echo = events_.now();
  packet->route = data_route_;
  packet->next_hop = 0;
  if (retransmit) ++retransmits_;
  ++sent_;
  packet->forward();
}

void TcpSrc::dctcp_on_ack(std::uint64_t bytes_acked, bool ecn_echo) {
  dctcp_acked_ += bytes_acked;
  if (ecn_echo) dctcp_marked_ += bytes_acked;
  if (snd_una_ < dctcp_window_end_) return;

  // One observation window (~RTT of data) elapsed: fold the marked
  // fraction into alpha with gain g = 2^-shift, apply the DCTCP cut if
  // anything was marked, and start the next window.
  const double fraction =
      dctcp_acked_ > 0 ? static_cast<double>(dctcp_marked_) /
                             static_cast<double>(dctcp_acked_)
                       : 0.0;
  const double g = 1.0 / static_cast<double>(1 << params_.dctcp_gain_shift);
  dctcp_alpha_ = (1.0 - g) * dctcp_alpha_ + g * fraction;
  if (dctcp_marked_ > 0 && !in_fast_recovery_) {
    const auto cut = static_cast<std::uint64_t>(
        static_cast<double>(cwnd_) * dctcp_alpha_ / 2.0);
    cwnd_ = std::max<std::uint64_t>(cwnd_ - cut, params_.mss);
    ssthresh_ = cwnd_;  // leave slow start once congestion is signalled
  }
  dctcp_acked_ = 0;
  dctcp_marked_ = 0;
  dctcp_window_end_ = highest_sent_;
}

void TcpSrc::check_complete() {
  if (flow_size_ > 0 && snd_una_ >= flow_size_ && !complete()) {
    completion_time_ = events_.now();
    rto_deadline_ = -1;
    if (on_complete_) on_complete_(*this);
  }
}

}  // namespace pnet::sim
