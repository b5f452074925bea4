#include "src/sim/wire.h"

#include <algorithm>

#include "src/base/strings.h"

namespace plan9 {

// Shared state outlives the Wire so in-flight timer callbacks stay valid.
struct Wire::Shared {
  // A leaf lock: held only across bookkeeping; delivery callbacks run with
  // it dropped.
  QLock lock{"sim.wire"};
  Direction dirs[2] GUARDED_BY(lock);  // dirs[kA] = A->B, dirs[kB] = B->A
  bool cut GUARDED_BY(lock) = false;
};

Wire::Wire(LinkParams a_to_b, LinkParams b_to_a) : shared_(std::make_shared<Shared>()) {
  auto now = TimerWheel::Clock::now();
  shared_->dirs[kA].params = a_to_b;
  shared_->dirs[kA].faults.Reconfigure(a_to_b.faults, a_to_b.seed, now);
  shared_->dirs[kB].params = b_to_a;
  shared_->dirs[kB].faults.Reconfigure(b_to_a.faults,
                                       b_to_a.seed ^ 0x517cc1b727220a95ULL, now);
  shared_->dirs[kA].busy_until = now;
  shared_->dirs[kB].busy_until = now;
}

Wire::~Wire() { Cut(); }

void Wire::Attach(End end, RecvFn fn) {
  QLockGuard guard(shared_->lock);
  // The callback of end X receives traffic from the *other* end, i.e. the
  // direction indexed by the sender.
  shared_->dirs[end == kA ? kB : kA].recv = std::move(fn);
}

void Wire::Detach(End end) { Attach(end, nullptr); }

Status Wire::Send(End from, Bytes frame) {
  auto shared = shared_;
  TimerWheel::Clock::duration delay;
  TimerWheel::Clock::duration tx_time{0};
  bool duplicate = false;
  {
    QLockGuard guard(shared->lock);
    Direction& dir = shared->dirs[from];
    if (shared->cut) {
      return Error(kErrHungup);
    }
    if (frame.size() > dir.params.mtu) {
      dir.stats.send_errors.Inc();
      return Error(StrFormat("frame too large for medium (%zu > %zu)", frame.size(),
                             dir.params.mtu));
    }
    dir.stats.frames_sent.Inc();
    dir.stats.bytes_sent.Inc(frame.size());
    auto now = TimerWheel::Clock::now();
    auto fault = dir.faults.Evaluate(now, frame.size());
    if (fault.drop) {
      dir.stats.frames_dropped.Inc();
      return Status::Ok();
    }
    if (fault.corrupt) {
      FaultInjector::ApplyCorruption(&frame, fault.corrupt_bit);
    }
    duplicate = fault.duplicate;
    // Serialization: the line transmits one frame at a time.
    if (dir.params.bandwidth_bps > 0) {
      tx_time = std::chrono::nanoseconds(frame.size() * 8ULL * 1'000'000'000ULL /
                                         dir.params.bandwidth_bps);
    }
    auto start = std::max(now, dir.busy_until);
    dir.busy_until = start + tx_time;
    delay = (dir.busy_until + dir.params.latency) - now + fault.extra_delay;
  }
  auto schedule = [](std::shared_ptr<Shared> shared, End from,
                     TimerWheel::Clock::duration delay, Bytes frame) {
    TimerWheel::Default().Schedule(
        delay, [shared = std::move(shared), from, frame = std::move(frame)]() mutable {
          RecvFn recv;
          {
            QLockGuard guard(shared->lock);
            if (shared->cut) {
              return;
            }
            Direction& dir = shared->dirs[from];
            dir.stats.frames_delivered.Inc();
            dir.stats.bytes_delivered.Inc(frame.size());
            recv = dir.recv;
          }
          if (recv) {
            recv(std::move(frame));
          }
        });
  };
  if (duplicate) {
    // The copy re-serializes behind the original, so it lands strictly later.
    schedule(shared, from, delay + tx_time + std::chrono::microseconds(1), frame);
  }
  schedule(shared, from, delay, std::move(frame));
  return Status::Ok();
}

const MediaStats& Wire::stats(End from) {
  QLockGuard guard(shared_->lock);
  return shared_->dirs[from].stats;
}

const FaultStats& Wire::fault_stats(End from) {
  QLockGuard guard(shared_->lock);
  return shared_->dirs[from].faults.stats();
}

void Wire::SetPartitioned(bool down) {
  QLockGuard guard(shared_->lock);
  shared_->dirs[kA].faults.SetDown(down);
  shared_->dirs[kB].faults.SetDown(down);
}

void Wire::Cut() {
  QLockGuard guard(shared_->lock);
  shared_->cut = true;
  shared_->dirs[kA].recv = nullptr;
  shared_->dirs[kB].recv = nullptr;
}

}  // namespace plan9
