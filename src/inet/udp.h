// UDP protocol device (§2.3).
//
// "UDP, while cheap, does not provide reliable sequenced delivery" — it is
// implemented here both as a usable transport (DNS queries ride on it) and
// as the baseline the loss benchmarks measure IL against.  Datagram
// boundaries are preserved: each datagram arrives as one delimited block.
//
// Announce/listen follow the uniform conversation model: a datagram from a
// previously unseen source on an announced port materializes a new
// conversation, which Listen() returns — giving UDP the same file-level
// interface as the connection-oriented protocols.
#ifndef SRC_INET_UDP_H_
#define SRC_INET_UDP_H_

#include <vector>

#include "src/base/thread_annotations.h"
#include "src/inet/ipconv.h"
#include "src/obs/metrics.h"

namespace plan9 {

class UdpProto;

// Registry-backed datagram/byte counters (net.udp.* aggregates).
struct UdpConvMetrics {
  UdpConvMetrics();

  obs::Counter dgrams_sent;
  obs::Counter dgrams_received;
  obs::Counter bytes_sent;
  obs::Counter bytes_received;

  void Reset();
};

class UdpConv : public IpConv {
 public:
  enum class State { kIdle, kConnected, kAnnounced, kClosed };

  UdpConv(UdpProto* proto, int index);

  Status WaitReady() override;
  std::string StatusText() override;

  const UdpConvMetrics& metrics() const { return metrics_; }

 private:
  // Conversation-core hooks.
  QLock& conv_lock() override RETURN_CAPABILITY(lock_) { return lock_; }
  bool IdleLocked() override REQUIRES(lock_) { return state_ == State::kIdle; }
  bool ListeningLocked() override REQUIRES(lock_) { return state_ == State::kAnnounced; }
  Status ConnectLocked(uint16_t port, uint32_t isn) override REQUIRES(lock_);
  void AnnounceLocked() override REQUIRES(lock_);
  bool OpenLocked(IpSegment& seg, uint32_t isn, IpConv* listener) override REQUIRES(lock_);
  void Opened(IpSegment seg) override { Input(std::move(seg)); }  // the first datagram
  // "bind <port>": fix the local port before connect.
  Status Verb(const std::vector<std::string>& words) override;
  void CloseLocked() override REQUIRES(lock_);
  void DropLocked() override REQUIRES(lock_) { state_ = State::kClosed; }
  void RecycleLocked() override REQUIRES(lock_);
  // Transmit one datagram to the connected remote.
  Status SendMessage(Bytes payload) override P9_HOT_PATH MAY_BLOCK;
  void Input(IpSegment seg) override P9_HOT_PATH;

  // Ordered after udp.proto (the demux and the slot table hold both).
  QLock lock_{"udp.conv"};
  State state_ GUARDED_BY(lock_) = State::kIdle;
  UdpConvMetrics metrics_;  // atomic counters; no lock needed
};

class UdpProto : public IpProto {
 public:
  explicit UdpProto(IpStack* ip) : IpProto(ip, kIpProtoUdp, 0) { Start(); }
  ~UdpProto() override { Stop(); }

  std::string name() override { return "udp"; }

 private:
  QLock& proto_lock() override RETURN_CAPABILITY(lock_) { return lock_; }
  std::unique_ptr<NetConv> NewConv(int index) override {
    return std::make_unique<UdpConv>(this, index);
  }
  bool Parse(IpPacket& pkt, IpSegment* seg) override P9_HOT_PATH;

  QLock lock_{"udp.proto"};
};

}  // namespace plan9

#endif  // SRC_INET_UDP_H_
