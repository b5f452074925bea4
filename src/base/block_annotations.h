// Data-path ownership and copy-discipline annotations.
//
// "Information is represented by linked lists of kernel structures called
// blocks" (§2.4) — and blocks are *passed*, not copied, between processing
// modules.  The whole data path hands a Block from the device input routine
// up through the protocol modules to the stream head (and back down on
// write) by transferring ownership of a single BlockPtr.  That discipline is
// implied by unique_ptr but not enforced by it: a stray CloneBlock, an early
// return that silently destroys a delimited block, or a per-message Bytes
// copy all compile cleanly.  These macros make the contract machine-checked:
//
//   * P9_CONSUMES(b) — the function takes ownership of block parameter `b`.
//     tools/lint/plan9lint (blockcheck) verifies the body forwards, drops
//     (DropBlock), resets, or returns the block on EVERY path;
//     an early return that strands it is a finding (block-consume).
//   * P9_BORROWS(b) — the function inspects block (or block-shaped)
//     parameter `b` but must not keep it: storing `&b` or binding it to a
//     member past the call is a finding (block-borrow-escape).
//   * P9_HOT_PATH — seeds the per-message send/receive paths.  plan9lint
//     propagates the property transitively over the call graph (callee
//     direction: everything reachable from a hot root is hot) and flags
//     copies and allocations inside hot functions: CloneBlock, Block::Text,
//     Bytes/std::string/std::vector construction, and the copying
//     MakeDataBlock (hot-path-copy).  Deliberate exceptions (the single
//     user-to-kernel copy in Stream::Write, the one block node per message
//     in AllocDataBlock, frame serialization) live in a
//     short whitelist in tools/lint/p9lint/config.py, mirroring the
//     kSleepableClass grammar for locks.
//
// The runtime counterpart is src/task/hotcheck.h: under
// -DPLAN9NET_HOTCHECK=ON a thread-local scope entered at HOT_PATH roots
// counts heap allocations and block copies per message (stream.hot.*
// counters feed allocs_per_message in the bench snapshot) and, for scopes
// declared zero-alloc, aborts with a flight-recorder dump on the first
// allocation.  Place P9_HOT_ROOT(name) at the top of a seeded function to
// open the scope.
//
// Like MAY_BLOCK, annotate declarations (the trailing position after the
// parameter list, alongside override/MAY_BLOCK); plan9lint reads them with
// its text frontend, and on clang they additionally expand to `annotate`
// attributes so AST-based tools can see them.  On GCC they expand to
// nothing.
#ifndef SRC_BASE_BLOCK_ANNOTATIONS_H_
#define SRC_BASE_BLOCK_ANNOTATIONS_H_

#include "src/base/thread_annotations.h"

// Ownership of block parameter `b` transfers to the callee; the callee must
// forward or explicitly drop it on every path.
#define P9_CONSUMES(b) P9_THREAD_ANNOTATION(annotate("plan9::consumes:" #b))

// Block parameter `b` is inspected only for the duration of the call; the
// callee must not store a reference or pointer to it.
#define P9_BORROWS(b) P9_THREAD_ANNOTATION(annotate("plan9::borrows:" #b))

// Per-message send/receive path: everything reachable from here runs once
// (or more) per message, so copies and allocations here are regressions.
#define P9_HOT_PATH P9_THREAD_ANNOTATION(annotate("plan9::hot_path"))

#endif  // SRC_BASE_BLOCK_ANNOTATIONS_H_
