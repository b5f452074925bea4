// Hot-path allocation checking (debug builds).
//
// The per-message data path (device input -> protocol module -> stream head,
// and the reverse on write) is supposed to pass blocks, not copy them, and to
// allocate no more than the one block node per message.  tools/lint/plan9lint
// proves that
// statically for the tokens it can see (blockcheck, DESIGN.md §13); this is
// the runtime half, mirroring lockcheck: when built with
// -DPLAN9NET_HOTCHECK=ON (the default; tier-1 tests always run with it) the
// global operator new is hooked and a thread-local Scope entered at
// P9_HOT_PATH roots counts every heap allocation and block copy made while
// the scope is open.
//
//   * Mode::kCount (product code, via P9_HOT_ROOT): counters are flushed on
//     scope exit into stream.hot.msgs / stream.hot.allocs /
//     stream.hot.alloc-bytes / stream.hot.copies, from which the bench
//     snapshot derives allocs_per_message — the runtime view of the same
//     invariant blockcheck enforces statically.
//   * Mode::kZeroAlloc (tests): the first allocation inside the scope
//     aborts with the allocation size, the root name, and a flight-recorder
//     dump, exactly like lockcheck's order-violation death.  Used to pin
//     down code that must not allocate at all.
//
// Scopes nest; only the outermost owns the per-message accounting, so a hot
// root calling another hot root counts one message.  Counting is per-thread:
// allocations made by other kprocs while this one sleeps are not charged.
#ifndef SRC_TASK_HOTCHECK_H_
#define SRC_TASK_HOTCHECK_H_

#include <cstddef>
#include <cstdint>

namespace plan9 {
namespace hotcheck {

enum class Mode {
  kCount,      // account allocations/copies, flush to stream.hot.* on exit
  kZeroAlloc,  // abort (with flight-recorder dump) on the first allocation
};

class Scope {
 public:
  explicit Scope(const char* root, Mode mode = Mode::kCount);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool outer_;
};

// Hook entry points.  No-ops when no scope is active on this thread.
void NoteAlloc(std::size_t bytes);  // called by the operator new hook
void NoteBlockCopy();               // called by CloneBlock / Block::Text

// Introspection (tests, and the bench snapshot before flush).
bool InScope();
uint64_t ScopeAllocs();      // allocations seen by the active scope
uint64_t ScopeAllocBytes();  // bytes allocated in the active scope
uint64_t ScopeCopies();      // block copies seen by the active scope

// Stop charging this thread's allocations while alive (metric registration,
// abort formatting — anything that allocates on behalf of the checker).
class SuspendScope {
 public:
  SuspendScope();
  ~SuspendScope();
  SuspendScope(const SuspendScope&) = delete;
  SuspendScope& operator=(const SuspendScope&) = delete;
};

}  // namespace hotcheck
}  // namespace plan9

// Opens a counting scope at a P9_HOT_PATH root for the rest of the enclosing
// block.  Compiles away entirely without PLAN9NET_HOTCHECK.
#if defined(PLAN9NET_HOTCHECK)
#define P9_HOT_ROOT_CAT2(a, b) a##b
#define P9_HOT_ROOT_CAT(a, b) P9_HOT_ROOT_CAT2(a, b)
#define P9_HOT_ROOT(name) \
  ::plan9::hotcheck::Scope P9_HOT_ROOT_CAT(p9_hot_scope_, __LINE__)(name)
#else
#define P9_HOT_ROOT(name) ((void)0)
#endif

#endif  // SRC_TASK_HOTCHECK_H_
