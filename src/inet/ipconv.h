// The IP half of the conversation core: what IL, TCP and UDP share.
//
// An IP conversation is named by its 4-tuple (laddr!lport, raddr!rport).
// This layer owns the tuple and its local/remote files, the connect and
// announce verbs (route lookup, ephemeral port, initial sequence number),
// and the demultiplexer: a packet goes to the conversation with its exact
// tuple first, then — if it may open a call — to a listener on its port,
// and otherwise to the protocol's "nobody home" answer.  The scan is
// linear, as in Plan 9's devip.
#ifndef SRC_INET_IPCONV_H_
#define SRC_INET_IPCONV_H_

#include <cstdint>
#include <string>

#include "src/base/rand.h"
#include "src/inet/ip.h"
#include "src/inet/netproto.h"
#include "src/inet/portutil.h"

namespace plan9 {

class IpProto;

// One transport packet as the demultiplexer sees it.  `flags`, `seq`,
// `ack` and `wnd` carry whichever header words the protocol has (IL: type,
// id, ack; TCP: flags, seq, ack, window).
struct IpSegment {
  Ipv4Addr src, dst;
  uint16_t sport = 0, dport = 0;
  uint16_t flags = 0;
  uint32_t seq = 0, ack = 0;
  uint16_t wnd = 0;
  Bytes payload;
};

class IpConv : public NetConv {
 public:
  // Connection establishment: an announced conversation is ready at once;
  // otherwise sleep until the handshake completes (ReadyLocked) or fails.
  Status WaitReady() override;
  std::string Local() override;
  std::string Remote() override;

 protected:
  friend class IpProto;

  IpConv(IpProto* proto, int index);
  IpStack* ip() const;

  // --- Hooks ------------------------------------------------------------
  // connect: the tuple's addresses are set; take `port` as lport_ (or keep
  // a bound one) and start the handshake.
  virtual Status ConnectLocked(uint16_t port, uint32_t isn) = 0;
  // announce: lport_ is set; start listening.
  virtual void AnnounceLocked() = 0;
  // A call for `listener` arrived; the tuple is set.  Start the passive
  // side.  True if the call is ready for Listen() now.
  virtual bool OpenLocked(IpSegment& seg, uint32_t isn, IpConv* listener) = 0;
  // Then, without conv_lock(): what else the opening packet carries.
  virtual void Opened(IpSegment seg) {}
  // A packet for this conversation (called without conv_lock()).
  virtual void Input(IpSegment seg) P9_HOT_PATH = 0;
  // The handshake completed.
  virtual bool ReadyLocked() { return false; }

  Status Connect(const std::string& addr) final;
  Status Announce(const std::string& addr) final;
  // IP calls are accepted at listen, and "networks such as IP ignore the
  // third argument": reject is hangup.
  Status Accept() override { return Status::Ok(); }
  Status Reject(const std::string& reason) override;
  void RecycleLocked() override;

  // Guarded by conv_lock().
  Ipv4Addr laddr_, raddr_;
  uint16_t lport_ = 0, rport_ = 0;

 private:
  IpProto* ipproto_;
};

class IpProto : public NetProto {
 public:
  IpStack* ip() { return ip_; }

 protected:
  IpProto(IpStack* ip, uint8_t number, uint64_t isn_seed)
      : ip_(ip), number_(number), isn_rng_(isn_seed) {}

  // Register with / unregister from the IP stack; the protocol's
  // constructor and destructor call them.
  void Start();
  void Stop() MAY_BLOCK;

  // --- Hooks ------------------------------------------------------------
  // Checks and strips the transport header into `seg`; false drops it.
  virtual bool Parse(IpPacket& pkt, IpSegment* seg) P9_HOT_PATH = 0;
  // May this packet open a call at a listener (IL sync, TCP SYN)?
  virtual bool Opens(const IpSegment& seg) { return true; }
  // No conversation wants the packet.
  virtual void NobodyHome(const IpSegment& seg) {}

  // The next ISN, and the next ephemeral port into *port if asked.
  uint32_t NextIsn(uint16_t* port);

 private:
  friend class IpConv;

  void Input(IpPacket&& pkt) P9_HOT_PATH;
  void Spawn(IpConv* listener, IpSegment& seg);

  IpStack* ip_;
  uint8_t number_;
  // Guarded by proto_lock().
  PortAlloc ports_;
  Rng isn_rng_;
};

}  // namespace plan9

#endif  // SRC_INET_IPCONV_H_
