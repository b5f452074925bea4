// The lockdep-style checker (src/task/lockcheck.h) must catch deliberate
// ordering bugs.  Death tests run in a re-executed child ("threadsafe"
// style, set in test_main.cc), so the edges the child records never pollute
// the parent's global order graph — each test uses its own class names
// anyway, for the same reason.
#include "src/task/lockcheck.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/task/kproc.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

#if defined(PLAN9NET_LOCKCHECK)

namespace plan9 {
namespace {

TEST(LockcheckDeathTest, OrderInversionAborts) {
  QLock a{"test.inv.a"};
  QLock b{"test.inv.b"};
  {
    QLockGuard ga(a);
    QLockGuard gb(b);  // establishes test.inv.a -> test.inv.b
  }
  EXPECT_DEATH(
      {
        QLockGuard gb(b);
        QLockGuard ga(a);  // opposite order: ABBA deadlock under load
      },
      "lock order inversion");
}

TEST(LockcheckDeathTest, InversionThroughIntermediateClassAborts) {
  // The graph check is transitive: a -> b -> c established, then c -> a
  // must abort even though no direct a/c nesting was ever seen.
  QLock a{"test.chain.a"};
  QLock b{"test.chain.b"};
  QLock c{"test.chain.c"};
  {
    QLockGuard ga(a);
    QLockGuard gb(b);
  }
  {
    QLockGuard gb(b);
    QLockGuard gc(c);
  }
  EXPECT_DEATH(
      {
        QLockGuard gc(c);
        QLockGuard ga(a);
      },
      "lock order inversion");
}

TEST(LockcheckDeathTest, SelfDeadlockAborts) {
  QLock a{"test.self.a"};
  EXPECT_DEATH(
      {
        QLockGuard g1(a);
        a.Lock();  // std::mutex is non-recursive; this would hang forever
      },
      "self-deadlock");
}

TEST(Lockcheck, ConsistentOrderIsAccepted) {
  QLock outer{"test.ok.outer"};
  QLock inner{"test.ok.inner"};
  for (int i = 0; i < 3; i++) {
    QLockGuard go(outer);
    QLockGuard gi(inner);
  }
  // Same classes, same order, different instances: still fine.
  QLock outer2{"test.ok.outer"};
  QLock inner2{"test.ok.inner"};
  QLockGuard go(outer2);
  QLockGuard gi(inner2);
}

TEST(Lockcheck, HeldCountTracksTheStack) {
  QLock a;
  QLock b;
  EXPECT_EQ(lockcheck::HeldCount(), 0);
  {
    QLockGuard ga(a);
    EXPECT_EQ(lockcheck::HeldCount(), 1);
    {
      QLockGuard gb(b);
      EXPECT_EQ(lockcheck::HeldCount(), 2);
    }
    EXPECT_EQ(lockcheck::HeldCount(), 1);
  }
  EXPECT_EQ(lockcheck::HeldCount(), 0);
}

TEST(Lockcheck, LockTakenAfterTheThreadsLockStackIsGoneIsSafe) {
  // `late` is built before the thread's lock stack, so it is destroyed
  // after it, as a static destructor is after the main thread's; taking a
  // QLock there must not touch the destroyed stack.
  QLock lock{"test.late"};
  struct TakesLockLate {
    QLock* lock;
    ~TakesLockLate() { QLockGuard g(*lock); }
  };
  std::thread([&lock] {
    thread_local TakesLockLate late{&lock};
    QLockGuard g(lock);
  }).join();
}

TEST(Lockcheck, SleepReleasesTheHeldEntry) {
  // Rendez waits on the QLock itself, so while asleep the thread must not
  // appear to hold it (another kproc takes it to flip the condition).
  QLock lock;
  Rendez r;
  bool ready = false;

  Kproc waker("test.lockcheck.waker", [&] {
    QLockGuard g(lock);
    ready = true;
    r.Wakeup();
  });

  QLockGuard g(lock);
  r.Sleep(lock, [&]() REQUIRES(lock) { return ready; });
  EXPECT_EQ(lockcheck::HeldCount(), 1);  // re-held after the sleep
  g.Unlock();
  waker.Join();
  EXPECT_EQ(lockcheck::HeldCount(), 0);
}

TEST(Lockcheck, TryLockOrdersLaterAcquisitions) {
  // A successful TryLock adds no edges itself but lands on the held stack:
  // locks taken while it is held order after it, and releasing mid-stack
  // (guard destruction order here is inner-first, but TryLock released
  // before the other) must not confuse the stack.
  QLock a{"test.try.a"};
  QLock b{"test.try.b"};
  ASSERT_TRUE(a.TryLock());
  {
    QLockGuard gb(b);  // edge test.try.a -> test.try.b
    EXPECT_EQ(lockcheck::HeldCount(), 2);
    a.Unlock();  // release out of LIFO order
    EXPECT_EQ(lockcheck::HeldCount(), 1);
  }
  EXPECT_EQ(lockcheck::HeldCount(), 0);
}

TEST(LockcheckDeathTest, TryLockEstablishedOrderStillChecked) {
  // The edge recorded *under* a TryLock-held lock is a real ordering fact;
  // reversing it with blocking acquisitions must abort.
  QLock a{"test.tryinv.a"};
  QLock b{"test.tryinv.b"};
  ASSERT_TRUE(a.TryLock());
  {
    QLockGuard gb(b);
  }
  a.Unlock();
  EXPECT_DEATH(
      {
        QLockGuard gb(b);
        QLockGuard ga(a);
      },
      "lock order inversion");
}

TEST(LockcheckDeathTest, BlockingUnderUnrelatedLockAborts) {
  // The MAY_BLOCK runtime counterpart: sleeping on a rendez while holding a
  // lock that is neither the rendez's own nor of a sleepable class is the
  // blocking-under-lock deadlock class plan9lint checks statically.  The
  // assert fires as the sleep *begins* — deterministically, even though the
  // predicate is already true and the wait would not actually park.
  QLock unrelated{"test.block.unrelated"};
  QLock own{"test.block.own"};
  Rendez r;
  EXPECT_DEATH(
      {
        QLockGuard gu(unrelated);
        QLockGuard go(own);
        r.Sleep(own, [] { return true; });
      },
      "blocking under qlock");
}

TEST(Lockcheck, BlockingUnderSleepableClassIsAllowed) {
  // The two sanctioned hold-across-sleep idioms (stream.read,
  // 9p.server.write) are modeled by the SleepableClass tag: a sleep under
  // such a lock must not abort.
  QLock sleepable{"test.block.sleepable", kSleepableClass};
  QLock own{"test.block.own2"};
  Rendez r;
  QLockGuard gs(sleepable);
  QLockGuard go(own);
  r.Sleep(own, [] { return true; });
  EXPECT_EQ(lockcheck::HeldCount(), 2);
}

TEST(Lockcheck, SleepHoldingOnlyOwnLockIsAllowed) {
  // The rendez-own-lock idiom itself: never a finding.
  QLock own{"test.block.own3"};
  Rendez r;
  QLockGuard g(own);
  r.Sleep(own, [] { return true; });
  EXPECT_EQ(lockcheck::HeldCount(), 1);
}

TEST(Lockcheck, InstanceClassesAreIndependent) {
  // Unnamed locks get per-instance classes, so opposite nesting orders on
  // *different* pairs must not look like an inversion.  Distinct heap
  // objects kept alive, so TSan doesn't conflate reused addresses either.
  std::vector<std::unique_ptr<QLock>> keep;
  for (int i = 0; i < 4; i++) {
    keep.push_back(std::make_unique<QLock>());
    keep.push_back(std::make_unique<QLock>());
    QLock& a = *keep[keep.size() - 2];
    QLock& b = *keep[keep.size() - 1];
    if (i % 2 == 0) {
      QLockGuard ga(a);
      QLockGuard gb(b);
    } else {
      QLockGuard gb(b);
      QLockGuard ga(a);
    }
  }
}

}  // namespace
}  // namespace plan9

#endif  // PLAN9NET_LOCKCHECK
