// hotcheck: the runtime counterpart of blockcheck's copy-in-hot-path
// (src/task/hotcheck.h, DESIGN.md section 13).  Counting scopes charge
// every heap allocation on the thread to the open P9_HOT_ROOT; zero-alloc
// scopes abort on the first allocation.

#include "src/task/hotcheck.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/stream/block.h"

namespace plan9 {
namespace {

#if defined(PLAN9NET_HOTCHECK)

TEST(Hotcheck, CountsAllocationsInsideScope) {
  uint64_t before_allocs;
  {
    hotcheck::Scope scope("test.count");
    before_allocs = hotcheck::ScopeAllocs();
    auto p = std::make_unique<int>(42);
    EXPECT_GT(hotcheck::ScopeAllocs(), before_allocs);
    EXPECT_GE(hotcheck::ScopeAllocBytes(), sizeof(int));
  }
  EXPECT_FALSE(hotcheck::InScope());
}

TEST(Hotcheck, NestedScopesShareTheOuterAccount) {
  hotcheck::Scope outer("test.outer");
  auto a = std::make_unique<int>(1);
  uint64_t after_first = hotcheck::ScopeAllocs();
  {
    // Inner scope must NOT reset the counters: the message root owns them.
    // Allocate with a direct operator-new call: unlike a new-expression,
    // it cannot be elided by the optimizer.
    hotcheck::Scope inner("test.inner");
    void* p = ::operator new(32);
    ::operator delete(p);
  }
  EXPECT_GT(hotcheck::ScopeAllocs(), after_first);
}

TEST(Hotcheck, SuspendScopeExcludesCheckerInternals) {
  hotcheck::Scope scope("test.suspend");
  uint64_t before = hotcheck::ScopeAllocs();
  {
    hotcheck::SuspendScope suspend;
    auto p = std::make_unique<int>(7);
  }
  EXPECT_EQ(hotcheck::ScopeAllocs(), before);
}

TEST(Hotcheck, BlockCopiesAreCharged) {
  Block b;
  b.data = ToBytes("payload");
  b.delim = true;
  hotcheck::Scope scope("test.copies");
  uint64_t before = hotcheck::ScopeCopies();
  BlockPtr clone = CloneBlock(b);
  EXPECT_EQ(hotcheck::ScopeCopies(), before + 1);
}

TEST(HotcheckDeathTest, ZeroAllocScopeAbortsOnAllocation) {
  EXPECT_DEATH(
      {
        hotcheck::Scope scope("test.zero-alloc", hotcheck::Mode::kZeroAlloc);
        // Direct operator-new call: a plain new-expression of an unused
        // object is elidable under C++14 rules and may never reach the hook.
        void* p = ::operator new(32);
        ::operator delete(p);
      },
      "hotcheck: heap allocation .* inside zero-alloc hot scope "
      "'test.zero-alloc'");
}

#else  // !PLAN9NET_HOTCHECK

TEST(Hotcheck, DisabledScopesAreInert) {
  hotcheck::Scope scope("test.disabled", hotcheck::Mode::kZeroAlloc);
  auto p = std::make_unique<int>(1);
  EXPECT_EQ(*p, 1);
}

#endif  // PLAN9NET_HOTCHECK

}  // namespace
}  // namespace plan9
