// Drives a telemetry::Sampler off the packet simulator's control queue:
// one self-rescheduling EventSource that fires at every sample grid point.
// The driver only re-arms itself while other simulation work is pending —
// on the control queue or on any shard — so an otherwise-drained run still
// terminates: sampling rides the simulation, it never extends it.
#pragma once

#include "sim/event_queue.hpp"
#include "sim/shard.hpp"
#include "telemetry/sampler.hpp"

namespace pnet::sim {

class TelemetryDriver : public EventSource {
 public:
  /// `events` is the control queue the driver rides; `shards` the engine
  /// whose work keeps it sampling while that queue looks drained.
  TelemetryDriver(EventQueue& events, const ShardSet& shards,
                  telemetry::Sampler& sampler)
      : events_(events), shards_(shards), sampler_(sampler) {}

  /// Starts sampling at `at` (the first sample lands one interval later).
  /// No-op when the sampler has no interval configured.
  void start(SimTime at) {
    sampler_.start(at);
    schedule_next();
  }

  void do_next_event() override {
    events_.aux_fired();
    sampler_.advance(events_.now());
    // The firing entry is already popped, so real_pending() counts
    // everything else except sibling drivers (e.g. the control loop):
    // re-arm only while real simulation work remains.
    if (events_.real_pending() > 0 || shards_.busy()) schedule_next();
  }

 private:
  void schedule_next() {
    const SimTime next = sampler_.next_sample_at();
    if (next != telemetry::Sampler::kNoSample) {
      events_.schedule_aux_at(next, this);
    }
  }

  EventQueue& events_;
  const ShardSet& shards_;
  telemetry::Sampler& sampler_;
};

}  // namespace pnet::sim
