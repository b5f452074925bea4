#include "src/sim/wire.h"

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
  shared_->dirs[kA].Configure(a_to_b, a_to_b.seed, now);
  shared_->dirs[kB].Configure(b_to_a, b_to_a.seed ^ 0x517cc1b727220a95ULL, now);
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
  Transmitter::Plan plan;
  {
    QLockGuard guard(shared->lock);
    P9_ASSIGN_OR_RETURN(plan, shared->dirs[from].Transmit(shared->cut ? kErrHungup : nullptr,
                                                          frame.size(), &frame));
  }
  plan.Schedule([shared, from, frame = std::move(frame)]() mutable {
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
