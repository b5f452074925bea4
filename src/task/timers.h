// Timer service.
//
// Protocol retransmission (§2.4: "a helper kernel process awakens
// periodically to perform any necessary TCP retransmissions") and simulated
// media delivery both need one-shot timers.  TimerWheel runs callbacks on a
// dedicated kproc; Cancel guarantees the callback either already ran or will
// never run (it never cancels a callback mid-flight from another thread's
// perspective — see CancelSync).
#ifndef SRC_TASK_TIMERS_H_
#define SRC_TASK_TIMERS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>

#include "src/base/thread_annotations.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {

using TimerId = uint64_t;
inline constexpr TimerId kNoTimer = 0;

class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;

  TimerWheel();
  ~TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Run `fn` on the timer kproc after `delay`.  Callbacks must not block for
  // long: they typically put a block on a queue or wake a Rendez.
  TimerId Schedule(Clock::duration delay, std::function<void()> fn);

  // Best-effort cancel; returns true if the callback was removed before it
  // ran.  The callback may be executing concurrently when this returns false.
  bool Cancel(TimerId id);

  // Number of pending timers (tests).
  size_t Pending();

  // Wait until the timer thread is not executing callbacks.  Teardown
  // protocol: cancel your timers / detach your media callbacks, then Drain();
  // afterwards no callback scheduled before the Drain can still be touching
  // your state.  Must not be called from a timer callback.
  void Drain() MAY_BLOCK;

  // Process-wide default instance used by the simulator and protocols.
  static TimerWheel& Default();

 private:
  void Loop();

  // Leaf lock of the hierarchy (DESIGN.md): conversations call
  // Schedule/Cancel holding their own lock, and callbacks run with this lock
  // *dropped* so they may take conversation locks in turn.
  QLock lock_{"timer"};
  Rendez wake_;
  Rendez drained_;
  // Keyed by (deadline, id): ids increase, so equal deadlines fire in the
  // order they were scheduled, and Cancel erases its one key.
  std::map<std::pair<Clock::time_point, TimerId>, std::function<void()>> queue_
      GUARDED_BY(lock_);
  std::map<TimerId, Clock::time_point> index_ GUARDED_BY(lock_);
  TimerId next_id_ GUARDED_BY(lock_) = 1;
  bool stop_ GUARDED_BY(lock_) = false;
  bool executing_ GUARDED_BY(lock_) = false;
  std::thread thread_;
};

}  // namespace plan9

#endif  // SRC_TASK_TIMERS_H_
