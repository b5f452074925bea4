#include "src/inet/netproto.h"

#include <algorithm>

#include "src/base/logging.h"

namespace plan9 {

// The proto's Quiesce stopped every timer before the table is destroyed.
NetConv::~NetConv() {
  if (timer_ != kNoTimer) {
    TimerWheel::Default().Cancel(timer_);
  }
}

Status NetConv::Ctl(const std::string& msg) {
  auto words = Tokenize(msg);
  if (words.empty()) {
    return Error(kErrBadCtl);
  }
  const std::string& verb = words[0];
  if ((verb == "connect" || verb == "announce") && words.size() >= 2) {
    // The dial library's "dial.connect" span is the one live now, so the
    // conversation's captured parent is exactly the hop that created it.
    CaptureTrace(obs::Tracer::Current());
    return verb == "connect" ? Connect(words[1]) : Announce(words[1]);
  }
  if (verb == "hangup") {
    CloseUser();
    return Status::Ok();
  }
  if (verb == "accept") {
    return Accept();
  }
  if (verb == "reject") {
    // "Some networks such as Datakit accept a reason for a rejection."
    return Reject(words.size() >= 2 ? words[1] : "rejected");
  }
  return Verb(words);
}

Status NetConv::Connect(const std::string& addr) { return Error(kErrBadCtl); }
Status NetConv::Announce(const std::string& addr) { return Error(kErrBadCtl); }
Status NetConv::Accept() { return Error(kErrBadCtl); }
Status NetConv::Reject(const std::string& reason) { return Error(kErrBadCtl); }
Status NetConv::Verb(const std::vector<std::string>& words) { return Error(kErrBadCtl); }
Status NetConv::SendMessage(Bytes msg) { return Error(kErrPerm); }

std::unique_ptr<StreamModule> NetConv::NewModule() {
  return std::make_unique<MessageModule>(this, proto_->name());
}

Result<int> NetConv::Listen() {
  QLockGuard guard(conv_lock());
  if (!ListeningLocked()) {
    return Error("not announced");
  }
  incoming_.Sleep(conv_lock(), [&] { return !calls_.empty() || !ListeningLocked(); });
  if (!ListeningLocked()) {
    return Error(kErrHungup);
  }
  int conv = calls_.front();
  calls_.pop_front();
  return conv;
}

void NetConv::QueueCall(int index) {
  {
    QLockGuard guard(conv_lock());
    calls_.push_back(index);
  }
  incoming_.Wakeup();
}

void NetConv::CloseUser() {
  std::deque<int> orphans;
  bool hangup;
  {
    QLockGuard guard(conv_lock());
    orphans.swap(calls_);
    CloseLocked();
    // Still idle and never hung up (a clone nobody connected): no close is
    // coming from the protocol, so end it here and publish the slot.
    if (IdleLocked() && !hungup_) {
      HangupLocked();
    }
    hangup = std::exchange(hangup_pending_, false);
  }
  Detach();
  Settle(hangup);
  // Close calls nobody will ever Listen() for.
  for (int idx : orphans) {
    if (NetConv* c = proto_->Conv(static_cast<size_t>(idx)); c != nullptr) {
      c->CloseUser();
    }
  }
}

void NetConv::Abort(const std::string& why) {
  bool hangup;
  {
    QLockGuard guard(conv_lock());
    StopTimerLocked();
    calls_.clear();
    if (!IdleLocked()) {
      err_ = why;
    }
    DropLocked();
    HangupLocked();
    hangup = std::exchange(hangup_pending_, false);
  }
  Detach();
  Settle(hangup);
}

void NetConv::HangupLocked(std::string_view why) {
  if (err_.empty()) {
    err_ = why;
  }
  hangup_pending_ = true;
  hungup_ = true;
  CancelTimerLocked();
}

void NetConv::Settle(bool hangup) {
  if (hangup) {
    stream_->Hangup();
    // Publish the slot only now: Clone may recycle a free slot, which
    // replaces stream_ — that must not happen while the old stream is still
    // delivering the hangup.
    QLockGuard guard(conv_lock());
    slot_free_ = true;
  }
  ready_.Wakeup();
  window_.Wakeup();
  incoming_.Wakeup();
}

void NetConv::ArmTimerLocked(std::chrono::microseconds delay) {
  if (dying_) {
    return;  // teardown in progress: a re-armed timer would fire on freed state
  }
  deadline_ = TimerWheel::Clock::now() + delay;
  if (timer_ != kNoTimer && timer_at_ <= deadline_) {
    return;  // the entry fires first and follows the deadline from there
  }
  MoveEntryLocked();
}

void NetConv::MoveEntryLocked() {
  if (timer_ != kNoTimer) {
    TimerWheel::Default().Cancel(timer_);
    timer_ = kNoTimer;
    timer_gen_++;
  }
  if (deadline_ != kDisarmed) {
    timer_at_ = deadline_;
    timer_ = TimerWheel::Default().ScheduleAt(deadline_,
                                              [this, gen = timer_gen_] { OnTimer(gen); });
  }
}

void NetConv::StopTimerLocked() {
  dying_ = true;  // a racing timer fire must not re-arm
  deadline_ = kDisarmed;
  MoveEntryLocked();
}

void NetConv::OnTimer(uint64_t gen) {
  bool hangup;
  {
    QLockGuard guard(conv_lock());
    if (gen != timer_gen_) {
      return;  // removed while it was already running
    }
    timer_ = kNoTimer;
    if (TimerWheel::Clock::now() < deadline_) {
      MoveEntryLocked();  // fired early or disarmed: follow the deadline
      return;
    }
    deadline_ = kDisarmed;
    TimerLocked();
    hangup = std::exchange(hangup_pending_, false);
  }
  Settle(hangup);
}

bool NetConv::Claim() {
  QLockGuard guard(conv_lock());
  if (!slot_free_ || !IdleLocked() || refs.load() != 0) {
    return false;
  }
  slot_free_ = false;
  hungup_ = false;
  stream_ = std::make_unique<Stream>(NewModule());
  err_.clear();
  calls_.clear();
  RecycleLocked();
  return true;
}

Result<NetConv*> NetProto::Clone() {
  QLockGuard guard(proto_lock());
  for (auto& c : convs_) {
    if (c->Claim()) {
      return c.get();
    }
  }
  if (convs_.size() >= kMaxConvs) {
    return Error(kErrNoConv);
  }
  convs_.push_back(NewConv(static_cast<int>(convs_.size())));
  (void)convs_.back()->Claim();
  return convs_.back().get();
}

NetConv* NetProto::Conv(size_t index) {
  QLockGuard guard(proto_lock());
  return index < convs_.size() ? convs_[index].get() : nullptr;
}

size_t NetProto::ConvCount() {
  QLockGuard guard(proto_lock());
  return convs_.size();
}

std::vector<NetConv*> NetProto::Snapshot() {
  QLockGuard guard(proto_lock());
  std::vector<NetConv*> out;
  for (auto& c : convs_) {
    out.push_back(c.get());
  }
  return out;
}

Result<std::string> NetProto::InfoText(NetConv* conv, const std::string& file) {
  if (file == "local") {
    return conv->Local();
  }
  if (file == "remote") {
    return conv->Remote();
  }
  if (file == "status") {
    return conv->StatusText();
  }
  return Error(kErrNotExist);
}

void NetProto::Abort(const std::string& why) {
  for (NetConv* c : Snapshot()) {
    c->Abort(why);
  }
  // After Drain no conversation can emit or re-arm.
  TimerWheel::Default().Drain();
}

void NetProto::Quiesce() {
  for (NetConv* c : Snapshot()) {
    QLockGuard guard(c->conv_lock());
    c->StopTimerLocked();
  }
  TimerWheel::Default().Drain();
}

void MessageModule::DownPut(BlockPtr b) {
  if (b->type != BlockType::kData) {
    DropBlock(std::move(b));
    return;
  }
  Bytes msg;
  // A kproc always sees its own partial message counted, so a delimited
  // block skips the lock only when it cannot be the tail of a long write.
  if (b->delim && npartial_.load() == 0) {
    // The whole write in one block: its buffer becomes the message.
    msg = std::move(b->data);
    msg.erase(msg.begin(), msg.begin() + static_cast<long>(b->rp));
    DropBlock(std::move(b));
  } else if (!Coalesce(std::move(b), &msg)) {
    return;  // more of this write to come
  }
  Status s = conv_->SendMessage(std::move(msg));
  if (!s.ok()) {
    P9_LOG(kDebug) << name_ << " send: " << s.error().message();
  }
}

// Appends the block to this kproc's partial message; true (and the message
// in *msg) once its delimiter arrives.
bool MessageModule::Coalesce(BlockPtr b, Bytes* msg) {
  QLockGuard guard(lock_);
  const auto me = std::this_thread::get_id();
  auto it = std::find_if(partial_.begin(), partial_.end(),
                         [&](const auto& p) { return p.first == me; });
  if (it == partial_.end()) {
    it = partial_.emplace(partial_.end(), me, Bytes{});
    npartial_++;
  }
  it->second.insert(it->second.end(), b->payload(), b->payload() + b->size());
  bool delim = b->delim;
  DropBlock(std::move(b));
  if (!delim) {
    return false;
  }
  *msg = std::move(it->second);
  partial_.erase(it);
  npartial_--;
  return true;
}

}  // namespace plan9
