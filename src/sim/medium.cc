#include "src/sim/medium.h"

#include <algorithm>

#include "src/base/strings.h"

namespace plan9 {

MediaStats::MediaStats() {
  auto& r = obs::MetricsRegistry::Default();
  frames_sent.BindParent(&r.CounterNamed("sim.media.frames-sent"));
  frames_delivered.BindParent(&r.CounterNamed("sim.media.frames-delivered"));
  frames_dropped.BindParent(&r.CounterNamed("sim.media.frames-dropped"));
  bytes_sent.BindParent(&r.CounterNamed("sim.media.bytes-sent"));
  bytes_delivered.BindParent(&r.CounterNamed("sim.media.bytes-delivered"));
  send_errors.BindParent(&r.CounterNamed("sim.media.send-errors"));
}

void Transmitter::Configure(const LinkParams& link, uint64_t seed,
                            TimerWheel::Clock::time_point now) {
  params = link;
  faults.Reconfigure(link.faults, seed, now);
  busy_until = now;
}

Result<Transmitter::Plan> Transmitter::Transmit(const char* closed, size_t frame_size,
                                                Bytes* corruptible) {
  if (closed != nullptr) {
    return Error(closed);
  }
  if (frame_size > params.mtu) {
    stats.send_errors.Inc();
    return Error(StrFormat("frame too large for medium (%zu > %zu)", frame_size, params.mtu));
  }
  stats.frames_sent.Inc();
  stats.bytes_sent.Inc(frame_size);
  auto now = TimerWheel::Clock::now();
  auto fault = faults.Evaluate(now, corruptible->size());
  Plan plan;
  if (fault.drop) {
    stats.frames_dropped.Inc();
    plan.lost = true;
    return plan;
  }
  if (fault.corrupt) {
    FaultInjector::ApplyCorruption(corruptible, fault.corrupt_bit);
  }
  TimerWheel::Clock::duration tx_time{0};
  if (params.bandwidth_bps > 0) {
    tx_time = std::chrono::nanoseconds(frame_size * 8ULL * 1'000'000'000ULL /
                                       params.bandwidth_bps);
  }
  busy_until = std::max(now, busy_until) + tx_time;
  plan.delay = (busy_until + params.latency) - now + fault.extra_delay;
  if (fault.duplicate) {
    // The copy re-serializes behind the original, so it lands strictly later.
    plan.duplicate = plan.delay + tx_time + std::chrono::microseconds(1);
  }
  return plan;
}

void Transmitter::Plan::Schedule(std::function<void()> deliver) const {
  if (lost) {
    return;
  }
  if (duplicate) {
    TimerWheel::Default().Schedule(*duplicate, deliver);
  }
  TimerWheel::Default().Schedule(delay, std::move(deliver));
}

}  // namespace plan9
