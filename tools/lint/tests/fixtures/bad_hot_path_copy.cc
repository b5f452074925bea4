// Fixture: copy-in-hot-path.  HotRecv is annotated P9_HOT_PATH; Helper is
// reachable from it, so the propagated hot set covers both.
#include "src/base/block_annotations.h"
#include "src/stream/block.h"

namespace plan9 {

class Conv2 {
 public:
  void Deliver(BlockPtr b);
  void Helper(const Block& b);

  // BAD: clones the block on the per-message receive path.
  void HotRecv(const Block& b) P9_HOT_PATH {
    Deliver(CloneBlock(b));
    Helper(b);
  }

  // BAD via propagation: called from HotRecv, builds a std::string copy of
  // the payload and a copying block.
  void HotHelper(const Block& b) {
    name_ = std::string(reinterpret_cast<const char*>(b.payload()), b.size());
    Deliver(MakeDataBlock(name_, true));
  }

  // OK: not reachable from any hot function; copies freely.
  void ColdStats(const Block& b) {
    name_ = b.Text();
    Deliver(CloneBlock(b));
  }

  // OK: hot, but only AllocDataBlock and moves.
  void HotClean(Bytes payload) P9_HOT_PATH {
    Deliver(AllocDataBlock(std::move(payload), true));
  }

 private:
  std::string name_;
};

inline void Glue(Conv2* c, const Block& b) { c->HotHelper(b); }

inline void HotEntry(Conv2* c, const Block& b) P9_HOT_PATH { Glue(c, b); }

}  // namespace plan9
