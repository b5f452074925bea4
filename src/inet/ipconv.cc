#include "src/inet/ipconv.h"

#include "src/task/hotcheck.h"

namespace plan9 {

IpConv::IpConv(IpProto* proto, int index) : NetConv(proto, index), ipproto_(proto) {}

IpStack* IpConv::ip() const { return ipproto_->ip(); }

Status IpConv::WaitReady() {
  QLockGuard guard(conv_lock());
  if (ListeningLocked()) {
    return Status::Ok();
  }
  bool done = ready_.SleepFor(conv_lock(), std::chrono::seconds(15),
                              [&] { return ReadyLocked() || IdleLocked(); });
  if (ReadyLocked()) {
    return Status::Ok();
  }
  if (!done) {
    return Error(kErrTimedOut);
  }
  return Error(err_.empty() ? std::string(kErrConnRefused) : err_);
}

std::string IpConv::Local() {
  QLockGuard guard(conv_lock());
  Ipv4Addr shown = laddr_.IsUnspecified() ? ip()->PrimaryAddr() : laddr_;
  return StrFormat("%s %u\n", IpToString(shown).c_str(), lport_);
}

std::string IpConv::Remote() {
  QLockGuard guard(conv_lock());
  return StrFormat("%s %u\n", IpToString(raddr_).c_str(), rport_);
}

Status IpConv::Connect(const std::string& addr) {
  P9_ASSIGN_OR_RETURN(HostPort dest, ParseConnectAddr(addr));
  P9_ASSIGN_OR_RETURN(Ipv4Addr laddr, ip()->SourceFor(dest.addr));
  uint16_t port;
  uint32_t isn = ipproto_->NextIsn(&port);
  QLockGuard guard(conv_lock());
  if (!IdleLocked()) {
    return Error("connection already in use");
  }
  laddr_ = laddr;
  raddr_ = dest.addr;
  rport_ = dest.port;
  return ConnectLocked(port, isn);
}

Status IpConv::Announce(const std::string& addr) {
  P9_ASSIGN_OR_RETURN(uint16_t port, ParseAnnounceAddr(addr));
  QLockGuard guard(conv_lock());
  if (!IdleLocked()) {
    return Error("connection already in use");
  }
  lport_ = port;
  AnnounceLocked();
  return Status::Ok();
}

Status IpConv::Reject(const std::string& reason) {
  CloseUser();
  return Status::Ok();
}

void IpConv::RecycleLocked() {
  laddr_ = raddr_ = Ipv4Addr{};
  lport_ = rport_ = 0;
}

void IpProto::Start() {
  ip_->RegisterProtocol(number_, [this](IpPacket&& pkt) { Input(std::move(pkt)); });
}

void IpProto::Stop() {
  ip_->UnregisterProtocol(number_);
  // No new packets can reach a conversation now; stop the timers.
  Quiesce();
}

uint32_t IpProto::NextIsn(uint16_t* port) {
  QLockGuard guard(proto_lock());
  if (port != nullptr) {
    *port = ports_.Next();
  }
  return static_cast<uint32_t>(isn_rng_.Next());
}

void IpProto::Input(IpPacket&& pkt) {
  P9_HOT_ROOT("ip.demux");
  IpSegment seg;
  seg.src = pkt.src;
  seg.dst = pkt.dst;
  if (!Parse(pkt, &seg)) {
    return;
  }
  IpConv* conv = nullptr;
  IpConv* listener = nullptr;
  {
    QLockGuard guard(proto_lock());
    for (auto& n : convs_) {
      IpConv* c = static_cast<IpConv*>(n.get());
      QLockGuard cguard(c->conv_lock());
      if (c->lport_ != seg.dport) {
        continue;
      }
      if (c->ListeningLocked()) {
        listener = listener != nullptr ? listener : c;
      } else if (c->rport_ == seg.sport && c->raddr_ == seg.src && !c->IdleLocked()) {
        conv = c;
        break;
      }
    }
  }
  if (conv != nullptr) {
    conv->Input(std::move(seg));
  } else if (listener != nullptr && Opens(seg)) {
    Spawn(listener, seg);
  } else {
    NobodyHome(seg);
  }
}

void IpProto::Spawn(IpConv* listener, IpSegment& seg) {
  auto spawned = Clone();
  if (!spawned.ok()) {
    return;
  }
  auto* nc = static_cast<IpConv*>(*spawned);
  uint32_t isn = NextIsn(nullptr);
  bool ready;
  {
    QLockGuard guard(nc->conv_lock());
    nc->laddr_ = seg.dst;
    nc->lport_ = seg.dport;
    nc->raddr_ = seg.src;
    nc->rport_ = seg.sport;
    ready = nc->OpenLocked(seg, isn, listener);
  }
  nc->Opened(std::move(seg));
  if (ready) {
    listener->QueueCall(nc->index());
  }
}

}  // namespace plan9
