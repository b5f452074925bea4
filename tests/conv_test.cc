// Conformance of the protocol devices to one conversation model (§2.3):
// "all protocol devices look identical".  Every device shares the slot
// table (clone, reuse, exhaustion) and the ctl grammar; the connection
// oriented ones (IL, TCP, UDP, URP) also share the listen queue and the
// shapes of their status/local/remote files.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "src/dev/cyclone.h"
#include "src/dev/ether.h"
#include "src/dk/urp.h"
#include "src/inet/il.h"
#include "src/inet/ip.h"
#include "src/inet/tcp.h"
#include "src/inet/udp.h"
#include "src/sim/datakit.h"
#include "src/sim/ether_segment.h"
#include "src/sim/wire.h"

namespace plan9 {
namespace {

using namespace std::chrono_literals;

// Two machines with one device each: `a` dials, `b` announces.
struct Rig {
  virtual ~Rig() = default;
  NetProto* a = nullptr;
  NetProto* b = nullptr;
  std::string announce;  // ctl address for b
  std::string connect;   // ctl address for a
  std::string live;      // status word of a queued or connected call
  std::string idle;      // status word once the protocol is done with a slot
  // Regexes for the established client's files and the listener's.
  std::string status, local, remote, listen_status, listen_local;
  // Sends one frame on a fresh conversation so its counters move; devices
  // without it place a call to a listener on b instead.
  std::function<void(NetConv*)> traffic;
};

struct IpRig : Rig {
  IpRig()
      : segment(LinkParams{.latency = 20us, .faults = {}}),
        alice_ip(Ipv4Addr::FromOctets(135, 104, 9, 31)),
        bob_ip(Ipv4Addr::FromOctets(135, 104, 9, 6)) {
    alice.AddEtherInterface(&segment, MacAddr{8, 0, 0x69, 2, 0x22, 0xf0}, alice_ip,
                            Ipv4Addr{0xffffff00});
    bob.AddEtherInterface(&segment, MacAddr{8, 0, 0x69, 2, 0x22, 0xf1}, bob_ip,
                          Ipv4Addr{0xffffff00});
    announce = "17008";
    connect = "135.104.9.6!17008";
    local = R"(135\.104\.9\.31 \d+\n)";
    remote = "135\\.104\\.9\\.6 17008\n";
    listen_local = "135\\.104\\.9\\.6 17008\n";
  }
  EtherSegment segment;
  IpStack alice, bob;
  Ipv4Addr alice_ip, bob_ip;
};

template <class P>
struct ProtoRig : IpRig {
  ProtoRig() : pa(&alice), pb(&bob) {
    a = &pa;
    b = &pb;
  }
  P pa, pb;
};

std::unique_ptr<Rig> MakeIl() {
  auto r = std::make_unique<ProtoRig<IlProto>>();
  r->live = "Established";
  r->idle = "Closed";
  r->status =
      R"(il/\d+ 0 Established 135\.104\.9\.31!\d+ 135\.104\.9\.6!17008 tx \d+ rx \d+ rtt \d+ us unacked \d+\n)";
  r->listen_status = "il/0 0 Listen 135\\.104\\.9\\.6!17008 0\\.0\\.0\\.0!0 tx 0 rx 0 rtt 0 us unacked 0\n";
  return r;
}

std::unique_ptr<Rig> MakeTcp() {
  auto r = std::make_unique<ProtoRig<TcpProto>>();
  r->live = "Established";
  r->idle = "Closed";
  r->status =
      R"(tcp/\d+ 0 Established connect 135\.104\.9\.31!\d+ 135\.104\.9\.6!17008 tx \d+ rx \d+\n)";
  r->listen_status = "tcp/0 0 Listen announce 135\\.104\\.9\\.6!17008 0\\.0\\.0\\.0!0 tx 0 rx 0\n";
  return r;
}

std::unique_ptr<Rig> MakeUdp() {
  auto r = std::make_unique<ProtoRig<UdpProto>>();
  r->live = "Connected";
  r->idle = "Idle";
  r->status = R"(udp/\d+ 0 Connected 135\.104\.9\.31!\d+ 135\.104\.9\.6!17008 tx \d+ rx \d+\n)";
  r->listen_status = "udp/0 0 Announced 135\\.104\\.9\\.6!17008 0\\.0\\.0\\.0!0 tx 0 rx 0\n";
  return r;
}

struct DkRig : Rig {
  DkRig() : pa(&dk, "nj/astro/helix"), pb(&dk, "nj/astro/musca") {
    a = &pa;
    b = &pb;
    announce = "rx";
    connect = "nj/astro/musca!rx";
    live = "Incoming";
    idle = "Closed";
    status = "dk/\\d+ 0 Established connect nj/astro/musca!rx tx \\d+ rx \\d+\n";
    local = "nj/astro/helix\n";
    remote = "nj/astro/musca!rx\n";
    listen_status = "dk/0 0 Listen announce rx tx 0 rx 0\n";
    listen_local = "nj/astro/musca!rx\n";
  }
  DatakitSwitch dk{LinkParams{.latency = 20us, .faults = {}}};
  DkProto pa, pb;
};

std::unique_ptr<Rig> MakeDk() { return std::make_unique<DkRig>(); }

struct CycloneRig : Rig {
  CycloneRig() : wire(LinkParams{.latency = 20us, .faults = {}}) {
    pa.AddLink(&wire, Wire::kA);
    pb.AddLink(&wire, Wire::kB);
    a = &pa;
    b = &pb;
    connect = "0";
    idle = "Closed";
    traffic = [](NetConv* c) {
      ASSERT_TRUE(c->Ctl("connect 0").ok());
      ASSERT_TRUE(c->Write(reinterpret_cast<const uint8_t*>("x"), 1).ok());
    };
  }
  Wire wire;
  CycloneProto pa, pb;
};

std::unique_ptr<Rig> MakeCyclone() { return std::make_unique<CycloneRig>(); }

struct EtherRig : Rig {
  EtherRig()
      : segment(LinkParams{.latency = 20us, .faults = {}}),
        pa(&segment, MacAddr{8, 0, 0x69, 2, 0x22, 0xf0}),
        pb(&segment, MacAddr{8, 0, 0x69, 2, 0x22, 0xf1}) {
    a = &pa;
    b = &pb;
    idle = "type -2";
    traffic = [](NetConv* c) {
      ASSERT_TRUE(c->Ctl("connect 2048").ok());
      const uint8_t frame[] = {8, 0, 0x69, 2, 0x22, 0xf1, 'h', 'i'};
      ASSERT_TRUE(c->Write(frame, sizeof frame).ok());
    };
  }
  EtherSegment segment;
  EtherProto pa, pb;
};

std::unique_ptr<Rig> MakeEther() { return std::make_unique<EtherRig>(); }

struct Device {
  const char* name;
  std::unique_ptr<Rig> (*make)();
};

std::string PrintDevice(const ::testing::TestParamInfo<Device>& info) {
  return info.param.name;
}

// Polls `pred` for up to five seconds.
bool Eventually(const std::function<bool()>& pred) {
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// Clones until the table hands out slot `want`, closing every other slot it
// hands out meanwhile.  nullptr if that never happens.
NetConv* CloneSlot(NetProto* p, int want) {
  NetConv* got = nullptr;
  Eventually([&] {
    auto c = p->Clone();
    if (!c.ok()) {
      return false;
    }
    if ((*c)->index() == want) {
      got = *c;
      return true;
    }
    (*c)->CloseUser();
    return false;
  });
  return got;
}

class SlotTableTest : public ::testing::TestWithParam<Device> {
 protected:
  void SetUp() override { rig_ = GetParam().make(); }

  // Announces on b and dials it from `client` (a conversation of a), which
  // sends `hello`; returns the call as b's Listen() hands it out, accepted
  // and with the message read.
  NetConv* Call(NetConv* client) {
    listener_ = rig_->b->Clone().take();
    EXPECT_TRUE(listener_->Ctl("announce " + rig_->announce).ok());
    NetConv* call = nullptr;
    std::thread server([&] {
      auto idx = listener_->Listen();
      ASSERT_TRUE(idx.ok());
      call = rig_->b->Conv(static_cast<size_t>(*idx));
      ASSERT_NE(call, nullptr);
      ASSERT_TRUE(call->Ctl("accept").ok());
      ASSERT_TRUE(call->WaitReady().ok());
      Bytes buf(16);
      auto n = call->Read(buf.data(), buf.size());
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + static_cast<long>(*n)), "hello");
    });
    Status s = client->Ctl("connect " + rig_->connect);
    if (s.ok()) {
      s = client->WaitReady();
    }
    if (auto w = client->Write(reinterpret_cast<const uint8_t*>("hello"), 5); s.ok() && !w.ok()) {
      s = w.error();
    }
    EXPECT_TRUE(s.ok()) << s.error().message();
    server.join();
    return call;
  }

  std::unique_ptr<Rig> rig_;
  NetConv* listener_ = nullptr;
};

TEST_P(SlotTableTest, ClosedSlotIsReusedOnlyWithoutOpenFilesAndStatsReset) {
  auto first = rig_->a->Clone();
  ASSERT_TRUE(first.ok());
  NetConv* c = *first;
  ASSERT_EQ(c->index(), 0);
  const std::string fresh = c->StatusText();
  NetConv* call = nullptr;
  if (rig_->traffic) {
    rig_->traffic(c);
  } else {
    call = Call(c);
    ASSERT_NE(call, nullptr);
  }
  ASSERT_TRUE(Eventually([&] { return c->StatusText() != fresh; })) << fresh;
  // A file is still open: the protocol finishes with the slot, but the
  // table must not hand it out.
  c->refs.store(1);
  c->CloseUser();
  if (call != nullptr) {
    call->CloseUser();
    listener_->CloseUser();
  }
  ASSERT_TRUE(Eventually([&] {
    return c->StatusText().find(rig_->idle) != std::string::npos;
  })) << c->StatusText();
  auto other = rig_->a->Clone();
  ASSERT_TRUE(other.ok());
  EXPECT_NE((*other)->index(), 0);
  (*other)->CloseUser();
  // Last file closed: the slot comes back, with its counters reset.
  c->refs.store(0);
  c->CloseUser();
  NetConv* reused = CloneSlot(rig_->a, 0);
  ASSERT_EQ(reused, c);
  EXPECT_EQ(reused->StatusText(), fresh);
  reused->CloseUser();
}

TEST_P(SlotTableTest, TableHolds256LiveConversations) {
  // Each clone keeps its clone file open, as devproto does.
  std::vector<NetConv*> live;
  for (int i = 0; i < 256; i++) {
    auto c = rig_->a->Clone();
    ASSERT_TRUE(c.ok()) << i;
    (*c)->refs.store(1);
    live.push_back(*c);
  }
  auto over = rig_->a->Clone();
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().message(), kErrNoConv);
  EXPECT_EQ(rig_->a->ConvCount(), 256u);
  EXPECT_EQ(rig_->a->Conv(256), nullptr);
  EXPECT_EQ(rig_->a->Conv(255), live.back());
  for (NetConv* c : live) {
    c->refs.store(0);
    c->CloseUser();
  }
}

TEST_P(SlotTableTest, NeverConnectedCloneFreesItsSlot) {
  // `cat /net/il/clone` opens and closes a conversation that never leaves
  // the closed state: its slot must come back at once, every time.
  for (int i = 0; i < 300; i++) {
    auto c = rig_->a->Clone();
    ASSERT_TRUE(c.ok()) << i << ": " << c.error().message();
    (*c)->CloseUser();
  }
  EXPECT_EQ(rig_->a->ConvCount(), 1u);
}

TEST_P(SlotTableTest, UnknownCtlVerbIsRejected) {
  auto c = rig_->a->Clone();
  ASSERT_TRUE(c.ok());
  for (const char* msg : {"frobnicate 1", "", "connect", "announce"}) {
    Status s = (*c)->Ctl(msg);
    ASSERT_FALSE(s.ok()) << msg;
    EXPECT_EQ(s.error().message(), kErrBadCtl) << msg;
  }
  (*c)->CloseUser();
}

INSTANTIATE_TEST_SUITE_P(AllDevices, SlotTableTest,
                         ::testing::Values(Device{"il", MakeIl}, Device{"tcp", MakeTcp},
                                           Device{"udp", MakeUdp}, Device{"dk", MakeDk},
                                           Device{"cyclone", MakeCyclone},
                                           Device{"ether", MakeEther}),
                         PrintDevice);

using CallTest = SlotTableTest;

TEST_P(CallTest, FilesHaveTheSharedShapes) {
  NetConv* client = rig_->a->Clone().take();
  NetConv* call = Call(client);
  ASSERT_NE(call, nullptr);
  EXPECT_TRUE(std::regex_match(listener_->StatusText(), std::regex(rig_->listen_status)))
      << listener_->StatusText();
  EXPECT_TRUE(std::regex_match(listener_->Local(), std::regex(rig_->listen_local)))
      << listener_->Local();
  EXPECT_TRUE(std::regex_match(client->StatusText(), std::regex(rig_->status)))
      << client->StatusText();
  EXPECT_TRUE(std::regex_match(client->Local(), std::regex(rig_->local))) << client->Local();
  EXPECT_TRUE(std::regex_match(client->Remote(), std::regex(rig_->remote)))
      << client->Remote();
  call->CloseUser();
  client->CloseUser();
  listener_->CloseUser();
}

TEST_P(CallTest, HangingUpAListenerClosesItsQueuedCalls) {
  listener_ = rig_->b->Clone().take();
  ASSERT_TRUE(listener_->Ctl("announce " + rig_->announce).ok());
  NetConv* client = rig_->a->Clone().take();
  // A Datakit connect returns only once the call is accepted or rejected.
  std::thread dialer([&] {
    if (client->Ctl("connect " + rig_->connect).ok() && client->WaitReady().ok()) {
      (void)client->Write(reinterpret_cast<const uint8_t*>("hello"), 5);
    }
  });
  // The call is queued on slot 1 of b once it is live; nobody Listen()s.
  NetConv* queued = nullptr;
  ASSERT_TRUE(Eventually([&] {
    queued = rig_->b->Conv(1);
    return queued != nullptr && queued->StatusText().find(rig_->live) != std::string::npos;
  }));
  std::this_thread::sleep_for(20ms);  // TCP queues just after going live
  ASSERT_TRUE(listener_->Ctl("hangup").ok());
  EXPECT_FALSE(listener_->Listen().ok());
  EXPECT_TRUE(Eventually([&] {
    return queued->StatusText().find(rig_->live) == std::string::npos;
  })) << queued->StatusText();
  dialer.join();
  client->CloseUser();
}

INSTANTIATE_TEST_SUITE_P(CallDevices, CallTest,
                         ::testing::Values(Device{"il", MakeIl}, Device{"tcp", MakeTcp},
                                           Device{"udp", MakeUdp}, Device{"dk", MakeDk}),
                         PrintDevice);

}  // namespace
}  // namespace plan9
