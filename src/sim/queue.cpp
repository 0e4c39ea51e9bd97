#include "sim/queue.hpp"

#include <cassert>

namespace pnet::sim {

void Queue::drop(Packet& packet, std::uint64_t& cause_counter) {
  ++cause_counter;
  ++s_->drops;
  if (packet.route != nullptr) packet.route->sinks.back()->packet_lost();
  pool_.free(&packet);
}

void Queue::receive(Packet& packet) {
  ++s_->received;
  if (failed_) {
    drop(packet, s_->drops_failed);
    return;
  }
  if (loss_rate_ > 0.0 && loss_rng_.next_double() < loss_rate_) {
    drop(packet, s_->drops_random);
    return;
  }

  const bool priority_class =
      (priority_acks_ && packet.is_ack) || packet.trimmed;
  if (priority_class) {
    // ACKs / already-trimmed headers ride the priority queue with its own
    // budget (mirrors NDP's separate header queue).
    if (s_->ack_queued_bytes + packet.size_bytes > buffer_bytes_) {
      drop(packet, s_->drops_overflow);
      return;
    }
    ack_fifo_.push_back(&packet);
    s_->ack_queued_bytes += packet.size_bytes;
  } else if (s_->queued_bytes + packet.size_bytes > buffer_bytes_) {
    // Data buffer full: cut payload if enabled, else tail-drop.
    if (trim_to_header_ && !packet.is_ack &&
        s_->ack_queued_bytes + kHeaderBytes <= buffer_bytes_) {
      packet.size_bytes = kHeaderBytes;
      packet.trimmed = true;
      ++s_->trims;
      ack_fifo_.push_back(&packet);
      s_->ack_queued_bytes += packet.size_bytes;
    } else {
      drop(packet, s_->drops_overflow);
      return;
    }
  } else {
    if (ecn_threshold_bytes_ > 0 && !packet.is_ack &&
        s_->queued_bytes >= ecn_threshold_bytes_) {
      packet.ecn_ce = true;
      ++s_->ecn_marks;
    }
    fifo_.push_back(&packet);
    s_->queued_bytes += packet.size_bytes;
  }

  if (audit_ != nullptr) {
    audit_->note_check();
    if (s_->queued_bytes > buffer_bytes_ ||
        s_->ack_queued_bytes > buffer_bytes_) {
      audit_->fail("queue occupancy above capacity: data=" +
                   std::to_string(s_->queued_bytes) + "B prio=" +
                   std::to_string(s_->ack_queued_bytes) + "B cap=" +
                   std::to_string(buffer_bytes_) + "B");
    }
  }

  if (!busy_) {
    busy_ = true;
    start_service();
  }
}

void Queue::audit_check(util::Audit& audit, const std::string& label) const {
  audit.note_check();
  const std::uint64_t buffered =
      fifo_.size() + ack_fifo_.size() + (in_service_ != nullptr ? 1 : 0);
  if (s_->received != s_->forwarded + s_->drops + buffered) {
    audit.fail(label + ": packet conservation broken: received=" +
               std::to_string(s_->received) + " != forwarded=" +
               std::to_string(s_->forwarded) + " + dropped=" +
               std::to_string(s_->drops) + " + buffered=" +
               std::to_string(buffered));
  }
  if (s_->queued_bytes > buffer_bytes_ ||
      s_->ack_queued_bytes > buffer_bytes_) {
    audit.fail(label + ": occupancy above capacity: data=" +
               std::to_string(s_->queued_bytes) + "B prio=" +
               std::to_string(s_->ack_queued_bytes) + "B cap=" +
               std::to_string(buffer_bytes_) + "B");
  }
}

void Queue::start_service() {
  // Strict priority: serve the ACK/header queue first. The selected packet
  // is committed (no preemption) — a later arrival cannot steal its slot.
  assert(in_service_ == nullptr);
  if (!ack_fifo_.empty()) {
    in_service_ = ack_fifo_.pop_front();
    in_service_priority_ = true;
  } else {
    in_service_ = fifo_.pop_front();
    in_service_priority_ = false;
  }
  if (in_service_->size_bytes != memo_bytes_) {
    memo_bytes_ = in_service_->size_bytes;
    memo_delay_ = units::serialization_delay(memo_bytes_,
                                             rate_bps_ * rate_scale_);
  }
  events_.schedule_in(memo_delay_, this);
}

void Queue::do_next_event() {
  Packet* packet = in_service_;
  in_service_ = nullptr;
  if (in_service_priority_) {
    s_->ack_queued_bytes -= packet->size_bytes;
  } else {
    s_->queued_bytes -= packet->size_bytes;
  }
  ++s_->forwarded;
  s_->forwarded_bytes += packet->size_bytes;
  if (ack_fifo_.empty() && fifo_.empty()) {
    busy_ = false;
  } else {
    start_service();
  }
  packet->forward();
}

}  // namespace pnet::sim
