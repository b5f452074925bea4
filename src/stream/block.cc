#include "src/stream/block.h"

#include "src/obs/metrics.h"
#include "src/task/hotcheck.h"

namespace plan9 {
namespace {

struct BlockCounters {
  obs::Counter& copies;
  obs::Counter& msgs;
};

BlockCounters& C() {
  // Registration allocates; keep it off any open hot scope's account.
  static BlockCounters c = [] {
    hotcheck::SuspendScope suspend;
    auto& r = obs::MetricsRegistry::Default();
    return BlockCounters{
        r.CounterNamed("stream.block.copies"),
        r.CounterNamed("stream.block.msgs"),
    };
  }();
  return c;
}

}  // namespace

namespace blockaudit {

void NoteCopy() {
  C().copies.Inc(1);
  hotcheck::NoteBlockCopy();
}

void NoteMessage() { C().msgs.Inc(1); }

}  // namespace blockaudit

BlockPtr AllocDataBlock(Bytes data, bool delim) {
  auto b = std::make_unique<Block>();
  b->data = std::move(data);
  b->delim = delim;
  return b;
}

void DropBlock(BlockPtr b) { b.reset(); }

}  // namespace plan9
