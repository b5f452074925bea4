// The conversation core's protocol timer (DESIGN.md §8): a deadline plus at
// most one wheel entry.  Re-arming to a later deadline only stores it, so
// the entry may fire early; TimerLocked must still run exactly once, at the
// deadline last armed, and never after a cancel or a teardown.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/inet/netproto.h"

namespace plan9 {
namespace {

using namespace std::chrono_literals;
using Clock = TimerWheel::Clock;

// A conversation that only records when its timer fires.
class TimerConv : public NetConv {
 public:
  using NetConv::NetConv;

  void Arm(std::chrono::microseconds delay) {
    QLockGuard guard(lock_);
    ArmTimerLocked(delay);
  }
  void Cancel() {
    QLockGuard guard(lock_);
    CancelTimerLocked();
  }
  bool Armed() {
    QLockGuard guard(lock_);
    return TimerArmedLocked();
  }
  std::vector<Clock::time_point> Fired() {
    QLockGuard guard(lock_);
    return fired_;
  }
  // Polls until `n` fires are recorded or `limit` passes.
  std::vector<Clock::time_point> WaitFired(size_t n, Clock::duration limit = 2s) {
    auto give_up = Clock::now() + limit;
    while (Fired().size() < n && Clock::now() < give_up) {
      std::this_thread::sleep_for(1ms);
    }
    return Fired();
  }

  Status WaitReady() override { return Status::Ok(); }
  std::string Local() override { return ""; }
  std::string Remote() override { return ""; }
  std::string StatusText() override { return ""; }

 protected:
  QLock& conv_lock() override { return lock_; }
  void CloseLocked() override {}
  void RecycleLocked() override {}
  void TimerLocked() override REQUIRES(lock_) { fired_.push_back(Clock::now()); }

 private:
  QLock lock_{"test.timer.conv"};
  std::vector<Clock::time_point> fired_ GUARDED_BY(lock_);
};

class TimerProto : public NetProto {
 public:
  ~TimerProto() override { Quiesce(); }
  std::string name() override { return "timer"; }
  TimerConv* NewTimerConv() { return static_cast<TimerConv*>(*Clone()); }
  void Teardown() { Quiesce(); }

 protected:
  QLock& proto_lock() override { return lock_; }
  std::unique_ptr<NetConv> NewConv(int index) override {
    return std::make_unique<TimerConv>(this, index);
  }

 private:
  QLock lock_{"test.timer.proto"};
};

TEST(ConvTimer, RearmToALaterDeadlineDoesNotFireAtTheEarlierOne) {
  TimerProto proto;
  TimerConv* c = proto.NewTimerConv();
  c->Arm(30ms);
  auto rearmed = Clock::now();
  c->Arm(150ms);  // the wheel entry stays at 30 ms and fires early
  auto fired = c->WaitFired(1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_GE(fired[0], rearmed + 150ms);
  EXPECT_FALSE(c->Armed());
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(c->Fired().size(), 1u);
}

TEST(ConvTimer, RearmToAnEarlierDeadlineFiresAtTheEarlierOne) {
  TimerProto proto;
  TimerConv* c = proto.NewTimerConv();
  c->Arm(10s);
  auto rearmed = Clock::now();
  c->Arm(20ms);  // moves the entry
  auto fired = c->WaitFired(1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_GE(fired[0], rearmed + 20ms);
  EXPECT_LT(fired[0], rearmed + 2s);
}

TEST(ConvTimer, CancelledTimerNeverFires) {
  TimerProto proto;
  TimerConv* c = proto.NewTimerConv();
  c->Arm(20ms);
  c->Cancel();
  EXPECT_FALSE(c->Armed());
  std::this_thread::sleep_for(80ms);  // the entry fires and finds nothing armed
  EXPECT_TRUE(c->Fired().empty());
}

TEST(ConvTimer, CancelThenArmFiresOnce) {
  TimerProto proto;
  TimerConv* c = proto.NewTimerConv();
  c->Arm(20ms);
  c->Cancel();
  auto rearmed = Clock::now();
  c->Arm(60ms);
  EXPECT_TRUE(c->Armed());
  auto fired = c->WaitFired(1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_GE(fired[0], rearmed + 60ms);
  std::this_thread::sleep_for(80ms);
  EXPECT_EQ(c->Fired().size(), 1u);
}

TEST(ConvTimer, QuiesceWithAStaleEntryFiresNothingAfterwards) {
  TimerProto proto;
  TimerConv* c = proto.NewTimerConv();
  c->Arm(20ms);
  c->Arm(40ms);  // the entry at 20 ms is now early for the deadline
  proto.Teardown();
  c->Arm(20ms);  // teardown refuses to arm again
  EXPECT_FALSE(c->Armed());
  std::this_thread::sleep_for(100ms);
  EXPECT_TRUE(c->Fired().empty());
}

}  // namespace
}  // namespace plan9
