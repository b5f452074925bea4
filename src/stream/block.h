// Blocks — the unit of information in a stream (§2.4).
//
// "Information is represented by linked lists of kernel structures called
// blocks.  Each block contains a type, some state flags, and pointers to an
// optional buffer.  Block buffers can hold either data or control
// information, i.e., directives to the processing modules."
//
// Blocks are passed, not copied, along the data path: ownership of a
// BlockPtr transfers at every hop (P9_CONSUMES), and per-message paths must
// not copy or allocate beyond the one block node per message (P9_HOT_PATH).
// See src/base/block_annotations.h and DESIGN.md §13 for the discipline and
// the checkers (blockcheck / hotcheck) that enforce it.
#ifndef SRC_STREAM_BLOCK_H_
#define SRC_STREAM_BLOCK_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/base/block_annotations.h"
#include "src/base/bytes.h"

namespace plan9 {

enum class BlockType : uint8_t {
  kData = 0,     // user or protocol payload
  kControl = 1,  // ASCII directive to processing modules ("push ...", module-specific)
  kHangup = 2,   // sent up the stream from the device end on disconnect
};

// Copy-audit hooks (src/stream/block.cc).  Every deliberate block copy and
// every message entering a stream is counted, so the bench snapshot can
// report copies_per_message (stream.block.* counters, DESIGN.md §13).
namespace blockaudit {
void NoteCopy();     // a whole-payload copy was made (CloneBlock, Text)
void NoteMessage();  // a delimited data block entered a stream head
}  // namespace blockaudit

struct Block {
  BlockType type = BlockType::kData;
  // End-of-message marker: "The last block written is flagged with a
  // delimiter to alert downstream modules that care about write boundaries."
  bool delim = false;
  Bytes data;
  // Read cursor: bytes [rp, data.size()) are live.  Kept in the block so a
  // partially-consumed block can be pushed back on a queue.
  size_t rp = 0;

  size_t size() const { return data.size() - rp; }
  const uint8_t* payload() const { return data.data() + rp; }
  std::string Text() const {
    blockaudit::NoteCopy();
    return std::string(reinterpret_cast<const char*>(payload()), size());
  }
};

using BlockPtr = std::unique_ptr<Block>;

// The one way to build a data block from a payload: the payload moves into
// one new node, the allocation a message costs (stream.hot.allocs).
// DropBlock is the one way to discard an owned block; letting a BlockPtr die
// in a destructor on a consuming path is a blockcheck finding.
BlockPtr AllocDataBlock(Bytes data, bool delim = false) P9_HOT_PATH;
void DropBlock(BlockPtr b) P9_CONSUMES(b);

// Copies the text: test and cold-path convenience, banned on hot paths.
inline BlockPtr MakeDataBlock(std::string_view text, bool delim = false) {
  return AllocDataBlock(ToBytes(text), delim);
}

inline BlockPtr MakeControlBlock(std::string_view text) {
  auto b = std::make_unique<Block>();
  b->type = BlockType::kControl;
  b->data = ToBytes(text);
  b->delim = true;
  return b;
}

inline BlockPtr MakeHangupBlock() {
  auto b = std::make_unique<Block>();
  b->type = BlockType::kHangup;
  b->delim = true;
  return b;
}

inline BlockPtr CloneBlock(const Block& b) P9_BORROWS(b);

inline BlockPtr CloneBlock(const Block& b) {
  blockaudit::NoteCopy();
  auto copy = std::make_unique<Block>();
  copy->type = b.type;
  copy->delim = b.delim;
  copy->data = Bytes(b.payload(), b.payload() + b.size());
  return copy;
}

}  // namespace plan9

#endif  // SRC_STREAM_BLOCK_H_
