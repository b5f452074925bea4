#include "src/dev/ether.h"

#include "src/base/strings.h"
#include "src/task/hotcheck.h"

namespace plan9 {

EtherConvMetrics::EtherConvMetrics() {
  auto& r = obs::MetricsRegistry::Default();
  frames_in.BindParent(&r.CounterNamed("net.ether.frames-in"));
  frames_out.BindParent(&r.CounterNamed("net.ether.frames-out"));
  drops.BindParent(&r.CounterNamed("net.ether.drops"));
}

void EtherConvMetrics::Reset() {
  frames_in.Reset();
  frames_out.Reset();
  drops.Reset();
}

EtherConv::EtherConv(EtherProto* proto, int index) : NetConv(proto, index), proto_(proto) {}

void EtherConv::RecycleLocked() {
  type_.reset();
  promiscuous_ = false;
  metrics_.Reset();
}

Status EtherConv::Connect(const std::string& addr) {
  // "Writing the string connect 2048 to the ctl file sets the packet type
  // to 2048...  The special packet type -1 selects all packets."
  auto type = ParseI64(addr);
  if (!type || *type < -1 || *type > 0xffff) {
    return Error(kErrBadArg);
  }
  QLockGuard guard(lock_);
  type_ = static_cast<int32_t>(*type);
  return Status::Ok();
}

Status EtherConv::Verb(const std::vector<std::string>& words) {
  if (words[0] != "promiscuous") {
    return Error(kErrBadCtl);
  }
  {
    QLockGuard guard(lock_);
    promiscuous_ = true;
  }
  proto_->UpdatePromiscuity();
  return Status::Ok();
}

Status EtherConv::SendMessage(Bytes frame) {
  auto type = this->type();
  if (frame.size() < 6 || !type.has_value()) {
    return Status::Ok();  // no destination address, or no packet type
  }
  MacAddr dst;
  std::copy_n(frame.begin(), 6, dst.begin());
  frame.erase(frame.begin(), frame.begin() + 6);
  metrics_.frames_out.Inc();
  return proto_->Transmit(dst, *type < 0 ? uint16_t{0} : static_cast<uint16_t>(*type),
                          std::move(frame));
}

Status EtherConv::WaitReady() {
  QLockGuard guard(lock_);
  if (!type_.has_value()) {
    return Error("no packet type selected");
  }
  return Status::Ok();
}

std::string EtherConv::Local() {
  return StrFormat("%s\n", MacToString(proto_->mac()).c_str());
}

std::string EtherConv::StatusText() {
  QLockGuard guard(lock_);
  return StrFormat("ether/%d %d type %d in %llu out %llu\n", index_, refs.load(),
                   type_.has_value() ? *type_ : -2,
                   static_cast<unsigned long long>(metrics_.frames_in.value()),
                   static_cast<unsigned long long>(metrics_.frames_out.value()));
}

void EtherConv::CloseLocked() {
  type_.reset();
  promiscuous_ = false;
  HangupLocked();
}

void EtherConv::Detach() { proto_->UpdatePromiscuity(); }

std::optional<int32_t> EtherConv::type() const {
  QLockGuard guard(lock_);
  return type_;
}

bool EtherConv::promiscuous() const {
  QLockGuard guard(lock_);
  return promiscuous_;
}

void EtherConv::Deliver(Bytes frame) {
  {
    QLockGuard guard(lock_);
    if (!type_.has_value()) {
      return;  // closed since the demux matched it
    }
    // Bounded input queueing: NICs drop when software lags.
    if (stream_->head_queue().byte_count() > 512 * 1024) {
      metrics_.drops.Inc();
      return;
    }
    metrics_.frames_in.Inc();
  }
  // Readers see the whole frame: dst, src, type, payload.
  stream_->DeliverUp(AllocDataBlock(std::move(frame), /*delim=*/true));
}

EtherProto::EtherProto(EtherSegment* segment, MacAddr mac, std::string name)
    : name_(std::move(name)), segment_(segment), mac_(mac) {
  station_ = segment_->Attach(mac_, [this](const EtherFrame& f) { Input(f); });
}

EtherProto::~EtherProto() {
  Unplug();
}

void EtherProto::Unplug() {
  {
    QLockGuard guard(lock_);
    if (std::exchange(unplugged_, true)) {
      return;
    }
  }
  segment_->Detach(station_);
  Abort("");
}

Result<std::string> EtherProto::InfoText(NetConv* conv, const std::string& file) {
  auto* ec = static_cast<EtherConv*>(conv);
  if (file == "type") {
    // "Subsequent reads of the file type yield the string 2048."
    auto type = ec->type();
    return StrFormat("%d\n", type.has_value() ? *type : -2);
  }
  if (file == "stats") {
    // "The stats file returns ASCII text containing the interface address,
    // packet input/output counts, error statistics, and general information
    // about the state of the interface."
    const MediaStats& s = segment_->stats();
    std::string out;
    out += StrFormat("addr: %s\n", MacToString(mac_).c_str());
    out += StrFormat("in: %llu\n",
                     static_cast<unsigned long long>(s.frames_delivered.value()));
    out += StrFormat("out: %llu\n",
                     static_cast<unsigned long long>(s.frames_sent.value()));
    out += StrFormat("drop: %llu\n",
                     static_cast<unsigned long long>(s.frames_dropped.value()));
    out += StrFormat("oerrs: %llu\n",
                     static_cast<unsigned long long>(s.send_errors.value()));
    out += FormatFaultStats(segment_->fault_stats());
    out += ec->StatusText();
    return out;
  }
  return NetProto::InfoText(conv, file);
}

Status EtherProto::Transmit(MacAddr dst, uint16_t type, Bytes payload) {
  return segment_->Send(EtherFrame{dst, mac_, type, std::move(payload)});
}

void EtherProto::UpdatePromiscuity() {
  bool any = false;
  {
    QLockGuard guard(lock_);
    if (unplugged_) {
      return;  // the station is off the cable
    }
    for (auto& n : convs_) {
      if (static_cast<EtherConv*>(n.get())->promiscuous()) {
        any = true;
        break;
      }
    }
  }
  segment_->SetPromiscuous(station_, any);
}

void EtherProto::Input(const EtherFrame& frame) {
  P9_HOT_ROOT("ether.input");
  // The multiplexing module of §2.4.3, hand coded: "If several connections
  // on an interface are configured for a particular packet type, each
  // receives a copy of the incoming packets."
  std::vector<EtherConv*> matches;
  {
    QLockGuard guard(lock_);
    for (auto& n : convs_) {
      EtherConv* c = static_cast<EtherConv*>(n.get());
      auto type = c->type();
      if (!type.has_value()) {
        continue;
      }
      bool match = *type == -1 || *type == static_cast<int32_t>(frame.type) ||
                   c->promiscuous();
      if (match) {
        matches.push_back(c);
      }
    }
  }
  if (matches.empty()) {
    return;
  }
  // "If several connections on an interface are configured for a particular
  // packet type, each receives a copy of the incoming packets."  Serialize
  // once; only the extra recipients pay for a copy.
  Bytes packed = frame.Pack();
  for (size_t i = 0; i + 1 < matches.size(); i++) {
    blockaudit::NoteCopy();
    matches[i]->Deliver(Bytes(packed));
  }
  matches.back()->Deliver(std::move(packed));
}

}  // namespace plan9
