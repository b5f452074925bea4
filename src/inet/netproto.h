// The protocol-device contract (§2.3) and the conversation core behind it.
//
// "All protocol devices look identical so user programs contain no
// network-specific code."  Every device (TCP, UDP, IL over IP; URP over
// Datakit; Cyclone fibers; the Ethernet driver) is a NetProto whose
// conversations are NetConvs; the devproto driver (src/dev) turns one
// NetProto into the file tree /net/<proto>/{clone, 0/, 1/, ...}.
//
// The devices look identical in the code too, in the manner of Plan 9's
// later devip: everything a device does *as a conversation* is written once
// here, and each protocol supplies hooks.
//
//   * the slot table: Clone/Conv/ConvCount, and the reuse rule — a slot is
//     handed out again once the protocol is done with it and no file on it
//     is open (refs == 0);
//   * the ctl grammar: connect/announce/hangup/accept/reject, parsed once,
//     with the per-protocol verbs (UDP bind, URP reject reasons, Ethernet
//     promiscuous) as hooks;
//   * the listen queue: calls a listener spawned, waiting for Listen(), and
//     closed with the listener if nobody ever asks for them;
//   * the lifecycle: deferred hangup (stream first, slot published after),
//     the protocol timer, crash-time Abort and teardown;
//   * the message module: one delimited write is one message.
//
// Each conversation owns a Stream (§2.4) whose device module is the protocol
// itself: user writes travel down the stream into the protocol's output
// routine, and packets demultiplexed from the wire are put up the stream
// into the head queue where reads find them.
//
// Locking.  Each protocol declares its own two locks ("il.proto" over its
// table, "il.conv" per conversation) and hands them to the core through
// proto_lock()/conv_lock(); the core's own fields are guarded by those.
// Hooks named *Locked run with conv_lock() held.
#ifndef SRC_INET_NETPROTO_H_
#define SRC_INET_NETPROTO_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/block_annotations.h"
#include "src/base/result.h"
#include "src/base/strings.h"
#include "src/base/thread_annotations.h"
#include "src/obs/span.h"
#include "src/stream/stream.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"
#include "src/task/timers.h"

namespace plan9 {

class NetProto;

class NetConv {
 public:
  NetConv(NetProto* proto, int index) : index_(index), proto_(proto) {}
  virtual ~NetConv();

  int index() const { return index_; }
  const std::string& owner() const { return owner_; }
  void set_owner(std::string owner) { owner_ = std::move(owner); }

  // One ASCII control message written to the ctl file, e.g.
  // "connect 135.104.9.31!564", "announce 17008", "hangup".
  Status Ctl(const std::string& msg);

  // Blocks until the conversation is usable: after `connect` this is
  // connection establishment ("When the data file is opened the connection
  // is established"); after `announce` it returns at once.
  virtual Status WaitReady() MAY_BLOCK = 0;

  // Data file I/O.  Reads come from the conversation's stream head and so
  // honour the transport's delimiter behaviour (IL/UDP/URP preserve message
  // boundaries; TCP does not).
  Result<size_t> Write(const uint8_t* data, size_t n) MAY_BLOCK {
    return stream_->Write(data, n);
  }
  Result<size_t> Read(uint8_t* buf, size_t n) MAY_BLOCK { return stream_->Read(buf, n); }

  // Blocks until an incoming call arrives on this announced conversation;
  // returns the index of the newly created conversation.
  Result<int> Listen() MAY_BLOCK;
  // Queues the call in slot `index` for Listen() (the listener side).
  void QueueCall(int index);

  // Contents of the local / remote / status files.
  virtual std::string Local() = 0;
  virtual std::string Remote() = 0;
  virtual std::string StatusText() = 0;

  // Called when the last user reference to the conversation's files goes
  // away: close the calls nobody will ever Listen() for, then let the
  // protocol shut down (gracefully, or at once via HangupLocked).
  void CloseUser();

  // Crash semantics (node lifecycle): abandon the conversation abruptly —
  // stream hung up, queued calls dropped, blocked users woken with `why` —
  // and emit nothing.
  void Abort(const std::string& why);

  Stream* stream() { return stream_.get(); }

  // Reference count of open files on this conversation (managed by the
  // devproto driver; shown in the status file).
  std::atomic<int> refs{0};

  // Causal tracing (DESIGN.md §12): the context active when the user wrote
  // connect/announce to the ctl file, captured by Ctl so late protocol
  // events (IL RTT samples) and the status line stay attributable.  hi is
  // written last / read first so a concurrent status reader never sees a
  // half-stamped id.
  void CaptureTrace(const obs::TraceContext& ctx) {
    if (!ctx.sampled) {
      return;
    }
    trace_parent_.store(ctx.span_id, std::memory_order_relaxed);
    trace_lo_.store(ctx.trace_lo, std::memory_order_relaxed);
    trace_rtt_budget_.store(kTraceRttBudget, std::memory_order_relaxed);
    trace_hi_.store(ctx.trace_hi, std::memory_order_release);
  }
  uint64_t trace_hi() const { return trace_hi_.load(std::memory_order_acquire); }
  uint64_t trace_lo() const { return trace_lo_.load(std::memory_order_relaxed); }
  uint64_t trace_parent() const {
    return trace_parent_.load(std::memory_order_relaxed);
  }
  // Point spans (il.rtt) are bounded per capture: without a budget a
  // stamped conversation would emit one span per ack for its whole
  // lifetime, flooding the ring — and since reading /net/trace over the
  // network acks frames, harvesting the trace would *generate* trace.
  bool TakeRttSpanBudget() {
    int budget = trace_rtt_budget_.load(std::memory_order_relaxed);
    while (budget > 0) {
      if (trace_rtt_budget_.compare_exchange_weak(budget, budget - 1,
                                                  std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
  // " trace <32 hex>" for status lines; empty if never dialed under a
  // sampled context.
  std::string TraceNote() const {
    uint64_t hi = trace_hi();
    uint64_t lo = trace_lo();
    if (hi == 0 && lo == 0) {
      return "";
    }
    return StrFormat(" trace %016llx%016llx", (unsigned long long)hi,
                     (unsigned long long)lo);
  }

 protected:
  friend class NetProto;
  friend class MessageModule;

  // --- Hooks ------------------------------------------------------------
  // The protocol's conversation lock (declared with its class name in the
  // protocol, e.g. "il.conv").
  virtual QLock& conv_lock() = 0;
  // The ctl verbs.  Defaults reject them as unknown.
  virtual Status Connect(const std::string& addr);
  virtual Status Announce(const std::string& addr);
  virtual Status Accept();
  virtual Status Reject(const std::string& reason);
  virtual Status Verb(const std::vector<std::string>& words);
  // True when the conversation is closed: connectable, and reusable once
  // its hangup completed.
  virtual bool IdleLocked() { return true; }
  virtual bool ListeningLocked() { return false; }
  // The user is done: start a graceful close, or end it via HangupLocked.
  virtual void CloseLocked() = 0;
  // Abort: enter the closed state without a word on the wire.
  virtual void DropLocked() {}
  // After CloseLocked/DropLocked, outside the lock: let go of the medium.
  virtual void Detach() {}
  // The slot is handed out again: fresh protocol state and counters.
  virtual void RecycleLocked() = 0;
  // The timer armed by ArmTimerLocked fired.
  virtual void TimerLocked() {}
  // One delimited user write (the message module's output).
  virtual Status SendMessage(Bytes msg) P9_HOT_PATH MAY_BLOCK;
  // The device module at the bottom of the stream.  Default: the message
  // module.
  virtual std::unique_ptr<StreamModule> NewModule();

  // --- Services ---------------------------------------------------------
  // Ends the conversation (under conv_lock()), recording `why` unless a
  // reason is already known.  Not stream_->Hangup() here: that takes the
  // stream chain lock, which the write path holds while taking conv_lock()
  // (the opposite order).  Callers take hangup_pending_ before dropping the
  // lock and pass it to Settle.
  void HangupLocked(std::string_view why = {});
  // After conv_lock() is dropped: finish a deferred hangup, then wake every
  // sleeper.
  void Settle(bool hangup);
  // The protocol timer: TimerLocked runs once `delay` from now has passed.
  // Arming replaces the deadline, cancelling clears it.  Both are cheap
  // enough for every message: see deadline_.
  void ArmTimerLocked(std::chrono::microseconds delay);
  void CancelTimerLocked() { deadline_ = kDisarmed; }
  bool TimerArmedLocked() const { return deadline_ != kDisarmed; }
  NetProto* proto() const { return proto_; }

  int index_;
  std::string owner_ = "network";
  std::unique_ptr<Stream> stream_;
  // Guarded by conv_lock().
  std::string err_;              // why the conversation died
  bool hangup_pending_ = false;  // set by HangupLocked
  Rendez ready_;     // connection establishment
  Rendez window_;    // send space
  Rendez incoming_;  // queued calls

 private:
  static constexpr int kTraceRttBudget = 32;
  static constexpr TimerWheel::Clock::time_point kDisarmed =
      TimerWheel::Clock::time_point::max();

  bool Claim();  // the reuse rule; RecycleLocked() when it holds
  void OnTimer(uint64_t gen);
  // Puts the wheel entry at deadline_, or removes it when disarmed.
  void MoveEntryLocked();
  // Teardown: remove the wheel entry and never arm again.
  void StopTimerLocked();

  NetProto* const proto_;
  // Guarded by conv_lock().
  bool slot_free_ = true;  // hangup complete: the protocol is done with it
  bool hungup_ = false;    // HangupLocked ran since the slot was claimed
  bool dying_ = false;     // proto teardown: never re-arm the timer
  // The protocol timer is a deadline plus at most one wheel entry, which
  // fires at or before it (DESIGN.md §8).  IL re-arms on every send and
  // every ack, long before the timeout expires, so re-arming to a later
  // deadline only stores it; the entry fires early, finds the deadline
  // ahead and re-schedules itself there.  Only an earlier deadline moves
  // the entry.
  TimerWheel::Clock::time_point deadline_ = kDisarmed;
  TimerId timer_ = kNoTimer;
  TimerWheel::Clock::time_point timer_at_;  // when timer_ fires
  // Bumped when timer_ is removed, so an entry that was already running
  // when it was removed finds itself stale.
  uint64_t timer_gen_ = 0;
  std::deque<int> calls_;  // the listen queue

  std::atomic<uint64_t> trace_hi_{0};
  std::atomic<uint64_t> trace_lo_{0};
  std::atomic<uint64_t> trace_parent_{0};
  std::atomic<int> trace_rtt_budget_{0};
};

class NetProto {
 public:
  static constexpr size_t kMaxConvs = 256;

  virtual ~NetProto() = default;

  // Directory name under /net ("tcp", "udp", "il", "dk").
  virtual std::string name() = 0;

  // The owning node's sysname, for trace-span hop labels ("" in bare
  // protocol unit tests).
  const std::string& host() const { return host_; }
  void set_host(std::string host) { host_ = std::move(host); }

  // The clone file: reserve an unused conversation.
  Result<NetConv*> Clone();

  // Conversation by number; nullptr if the slot was never created.
  NetConv* Conv(size_t index);

  // Number of conversation slots ever created (directory size).
  size_t ConvCount();

  // The files of one conversation directory, and the text of its info
  // files (local/remote/status by default).
  virtual std::vector<std::string> ConvFileNames() {
    return {"ctl", "data", "listen", "local", "remote", "status"};
  }
  virtual Result<std::string> InfoText(NetConv* conv, const std::string& file);

  // Crash semantics: NetConv::Abort on every conversation, then wait out
  // timer callbacks already running.  Call after unplugging the medium.
  void Abort(const std::string& why) MAY_BLOCK;

 protected:
  // The protocol's table lock (e.g. "il.proto"), ordered before conv_lock().
  virtual QLock& proto_lock() = 0;
  // A new conversation for slot `index`.
  virtual std::unique_ptr<NetConv> NewConv(int index) = 0;
  // Teardown, from the protocol's destructor once no input can arrive:
  // stop every timer and wait out callbacks already running.
  void Quiesce() MAY_BLOCK;

  // Guarded by proto_lock().
  std::vector<std::unique_ptr<NetConv>> convs_;

 private:
  std::vector<NetConv*> Snapshot();

  std::string host_;
};

// The device module of the message protocols: blocks are coalesced up to
// the delimiter and each message goes to the conversation's SendMessage.
// "A write of less than 32K is guaranteed to be contained by a single
// block", so the usual write is one delimited block and goes out as is,
// touching no module state; concurrent writers (two kprocs sharing one 9P
// mount) cannot tear each other's messages.  Longer writes are assembled
// per writing kproc under the module's own lock, which is never held
// across the send.
class MessageModule : public StreamModule {
 public:
  MessageModule(NetConv* conv, std::string name) : conv_(conv), name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  void DownPut(BlockPtr b) override P9_CONSUMES(b) P9_HOT_PATH;

 private:
  bool Coalesce(BlockPtr b, Bytes* msg) P9_CONSUMES(b);

  NetConv* conv_;
  std::string name_;
  QLock lock_{"stream.msg"};
  std::vector<std::pair<std::thread::id, Bytes>> partial_ GUARDED_BY(lock_);
  std::atomic<int> npartial_{0};
};

}  // namespace plan9

#endif  // SRC_INET_NETPROTO_H_
