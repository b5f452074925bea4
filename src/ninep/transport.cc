#include "src/ninep/transport.h"

#include "src/ninep/fcall.h"

namespace plan9 {

Result<bool> FramedMsgTransport::ReadFull(uint8_t* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    auto r = read_(buf + got, n - got);
    if (!r.ok()) {
      return r.error();
    }
    if (*r == 0) {
      if (got == 0) {
        return false;  // clean EOF between messages
      }
      return Error("eof inside 9p message");
    }
    got += *r;
  }
  return true;
}

Result<Bytes> FramedMsgTransport::ReadMsg() {
  uint8_t hdr[4];
  auto ok = ReadFull(hdr, sizeof hdr);
  if (!ok.ok()) {
    return ok.error();
  }
  if (!*ok) {
    return Bytes{};  // EOF
  }
  uint32_t len = static_cast<uint32_t>(hdr[0]) | static_cast<uint32_t>(hdr[1]) << 8 |
                 static_cast<uint32_t>(hdr[2]) << 16 | static_cast<uint32_t>(hdr[3]) << 24;
  if (len == 0 || len > kMaxMsg) {
    return Error("bad 9p frame length");
  }
  Bytes msg(len);
  auto body = ReadFull(msg.data(), len);
  if (!body.ok()) {
    return body.error();
  }
  if (!*body) {
    return Error("eof inside 9p message");
  }
  return msg;
}

Status FramedMsgTransport::WriteMsg(Bytes msg) {
  if (msg.size() > kMaxMsg) {
    return Error("9p message too long");
  }
  // Prefix the length in place: one memmove instead of a second buffer.
  uint32_t len = static_cast<uint32_t>(msg.size());
  const uint8_t hdr[4] = {static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
                          static_cast<uint8_t>(len >> 16),
                          static_cast<uint8_t>(len >> 24)};
  msg.insert(msg.begin(), hdr, hdr + 4);
  // One write: 9P messages are well under the 32K atomic-write guarantee, so
  // the frame never interleaves with another writer's.
  return write_(msg.data(), msg.size());
}

std::pair<std::unique_ptr<MsgTransport>, std::unique_ptr<MsgTransport>>
PipeTransport::Make() {
  auto a_to_b = std::make_shared<Queue>();
  auto b_to_a = std::make_shared<Queue>();
  auto a = std::unique_ptr<MsgTransport>(new PipeTransport(b_to_a, a_to_b));
  auto b = std::unique_ptr<MsgTransport>(new PipeTransport(a_to_b, b_to_a));
  return {std::move(a), std::move(b)};
}

Result<Bytes> PipeTransport::ReadMsg() {
  BlockPtr b = rx_->Get();
  if (b == nullptr) {
    return Bytes{};  // EOF
  }
  // Unread blocks surrender their buffer whole; a partially-read cursor
  // (never the case for message pipes, but be safe) forces a copy.
  Bytes out;
  if (b->rp == 0) {
    out = std::move(b->data);
  } else {
    out.assign(b->payload(), b->payload() + b->size());
  }
  DropBlock(std::move(b));
  return out;
}

Status PipeTransport::WriteMsg(Bytes msg) {
  return tx_->Put(AllocDataBlock(std::move(msg), /*delim=*/true));
}

void PipeTransport::Close() {
  rx_->Close();
  tx_->Close();
}

}  // namespace plan9
