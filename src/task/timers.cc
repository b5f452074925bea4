#include "src/task/timers.h"

#include <vector>

namespace plan9 {

TimerWheel::TimerWheel() : thread_([this] { Loop(); }) {}

TimerWheel::~TimerWheel() {
  {
    QLockGuard guard(lock_);
    stop_ = true;
  }
  wake_.Wakeup();
  thread_.join();
}

TimerId TimerWheel::Schedule(Clock::duration delay, std::function<void()> fn) {
  TimerId id;
  {
    QLockGuard guard(lock_);
    id = next_id_++;
    Clock::time_point when = Clock::now() + delay;
    queue_.emplace(std::make_pair(when, id), std::move(fn));
    index_.emplace(id, when);
  }
  wake_.Wakeup();
  return id;
}

bool TimerWheel::Cancel(TimerId id) {
  QLockGuard guard(lock_);
  auto it = index_.find(id);
  if (it == index_.end()) {
    return false;
  }
  queue_.erase({it->second, id});
  index_.erase(it);
  return true;
}

size_t TimerWheel::Pending() {
  QLockGuard guard(lock_);
  return queue_.size();
}

void TimerWheel::Drain() {
  QLockGuard guard(lock_);
  drained_.Sleep(lock_, [&]() REQUIRES(lock_) { return !executing_; });
}

void TimerWheel::Loop() {
  QLockGuard guard(lock_);
  while (!stop_) {
    if (queue_.empty()) {
      wake_.Sleep(lock_);
      continue;
    }
    auto next = queue_.begin()->first.first;
    if (Clock::now() < next) {
      wake_.SleepUntil(lock_, next);
      continue;
    }
    // Collect everything due, then run without the lock so callbacks can
    // schedule or cancel timers (and take conversation locks).
    std::vector<std::function<void()>> due;
    auto now = Clock::now();
    while (!queue_.empty() && queue_.begin()->first.first <= now) {
      auto it = queue_.begin();
      index_.erase(it->first.second);
      due.push_back(std::move(it->second));
      queue_.erase(it);
    }
    executing_ = true;
    guard.Unlock();
    for (auto& fn : due) {
      fn();
    }
    guard.Lock();
    executing_ = false;
    drained_.Wakeup();
  }
}

TimerWheel& TimerWheel::Default() {
  static TimerWheel* wheel = new TimerWheel();  // leaked: outlives all users
  return *wheel;
}

}  // namespace plan9
