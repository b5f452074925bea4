#include "src/inet/udp.h"

#include <cstring>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/task/hotcheck.h"

namespace plan9 {
namespace {

constexpr size_t kUdpHeaderSize = 8;

}  // namespace

UdpConvMetrics::UdpConvMetrics() {
  auto& r = obs::MetricsRegistry::Default();
  dgrams_sent.BindParent(&r.CounterNamed("net.udp.dgrams-sent"));
  dgrams_received.BindParent(&r.CounterNamed("net.udp.dgrams-rcvd"));
  bytes_sent.BindParent(&r.CounterNamed("net.udp.bytes-sent"));
  bytes_received.BindParent(&r.CounterNamed("net.udp.bytes-rcvd"));
}

void UdpConvMetrics::Reset() {
  dgrams_sent.Reset();
  dgrams_received.Reset();
  bytes_sent.Reset();
  bytes_received.Reset();
}

UdpConv::UdpConv(UdpProto* proto, int index) : IpConv(proto, index) {}

void UdpConv::RecycleLocked() {
  IpConv::RecycleLocked();
  state_ = State::kIdle;
  metrics_.Reset();
}

Status UdpConv::ConnectLocked(uint16_t port, uint32_t isn) {
  if (lport_ == 0) {
    lport_ = port;
  }
  state_ = State::kConnected;
  return Status::Ok();
}

void UdpConv::AnnounceLocked() {
  laddr_ = Ipv4Addr{};  // any local address
  state_ = State::kAnnounced;
}

// Unseen source on an announced port: a connected conversation for it,
// handed to Listen().
bool UdpConv::OpenLocked(IpSegment& seg, uint32_t isn, IpConv* listener) {
  state_ = State::kConnected;
  return true;
}

Status UdpConv::Verb(const std::vector<std::string>& words) {
  if (words[0] != "bind" || words.size() < 2) {
    return Error(kErrBadCtl);
  }
  auto port = ParseU64(words[1]);
  if (!port || *port > 65535) {
    return Error(kErrBadArg);
  }
  QLockGuard guard(lock_);
  lport_ = static_cast<uint16_t>(*port);
  return Status::Ok();
}

Status UdpConv::WaitReady() {
  QLockGuard guard(lock_);
  if (state_ == State::kClosed || state_ == State::kIdle) {
    return Error(kErrHungup);
  }
  return Status::Ok();  // UDP has no handshake
}

std::string UdpConv::StatusText() {
  QLockGuard guard(lock_);
  const char* s = "Idle";
  switch (state_) {
    case State::kIdle:
      s = "Idle";
      break;
    case State::kConnected:
      s = "Connected";
      break;
    case State::kAnnounced:
      s = "Announced";
      break;
    case State::kClosed:
      s = "Closed";
      break;
  }
  Ipv4Addr shown = laddr_.IsUnspecified() ? ip()->PrimaryAddr() : laddr_;
  return StrFormat("udp/%d %d %s %s!%u %s!%u tx %llu rx %llu\n", index_,
                   refs.load(), s, IpToString(shown).c_str(), lport_,
                   IpToString(raddr_).c_str(), rport_,
                   static_cast<unsigned long long>(metrics_.bytes_sent.value()),
                   static_cast<unsigned long long>(metrics_.bytes_received.value()));
}

// The slot goes back to the table at once: datagrams have no close.
void UdpConv::CloseLocked() {
  RecycleLocked();
  HangupLocked();
}

Status UdpConv::SendMessage(Bytes payload) {
  Ipv4Addr src, dst;
  uint16_t sport, dport;
  {
    QLockGuard guard(lock_);
    if (state_ != State::kConnected) {
      return Error("not connected");
    }
    src = laddr_;
    dst = raddr_;
    sport = lport_;
    dport = rport_;
  }
  Bytes pkt(kUdpHeaderSize + payload.size());
  Put16(pkt.data(), sport);
  Put16(pkt.data() + 2, dport);
  Put16(pkt.data() + 4, static_cast<uint16_t>(pkt.size()));
  Put16(pkt.data() + 6, 0);  // checksum optional in v4; media are checksummed
  std::memcpy(pkt.data() + kUdpHeaderSize, payload.data(), payload.size());
  metrics_.dgrams_sent.Inc();
  metrics_.bytes_sent.Inc(payload.size());
  return ip()->Send(kIpProtoUdp, src, dst, pkt);
}

void UdpConv::Input(IpSegment seg) {
  metrics_.dgrams_received.Inc();
  metrics_.bytes_received.Inc(seg.payload.size());
  stream_->DeliverUp(AllocDataBlock(std::move(seg.payload), /*delim=*/true));
}

bool UdpProto::Parse(IpPacket& pkt, IpSegment* seg) {
  if (pkt.payload.size() < kUdpHeaderSize) {
    return false;
  }
  const uint8_t* h = pkt.payload.data();
  uint16_t len = Get16(h + 4);
  if (len < kUdpHeaderSize || len > pkt.payload.size()) {
    return false;
  }
  seg->sport = Get16(h);
  seg->dport = Get16(h + 2);
  // Reuse the packet's buffer for the datagram payload.
  seg->payload = std::move(pkt.payload);
  seg->payload.resize(len);
  seg->payload.erase(seg->payload.begin(), seg->payload.begin() + kUdpHeaderSize);
  return true;
}

}  // namespace plan9
