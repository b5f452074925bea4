// IL — the Internet Link protocol (§3).
//
// "IL is a lightweight protocol designed to be encapsulated by IP.  It is a
// connection-based protocol providing reliable transmission of sequenced
// messages between machines."  Key properties, all implemented here:
//
//   * reliable datagram service with sequenced delivery (message == one
//     delimited block up the conversation stream);
//   * no flow control beyond "a small outstanding message window" — senders
//     block when the window fills, receivers discard out-of-window messages;
//   * two-way handshake generating initial sequence numbers;
//   * *query-based* retransmission: "IL does not do blind retransmission.
//     If a message is lost and a timeout occurs, a query message is sent...
//     The receiver responds to a query by retransmitting missing messages";
//   * adaptive timeouts from a round-trip timer, "so the protocol performs
//     well on both the Internet and on local Ethernets".
//
// Wire header (18 bytes, big-endian, IP protocol 40):
//   sum[2] len[2] type[1] spec[1] src[2] dst[2] id[4] ack[4]
#ifndef SRC_INET_IL_H_
#define SRC_INET_IL_H_

#include <chrono>
#include <deque>
#include <map>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/inet/ipconv.h"
#include "src/obs/metrics.h"

namespace plan9 {

enum class IlType : uint8_t {
  kSync = 0,
  kData = 1,
  kDataQuery = 2,  // retransmitted data, provokes an immediate ack
  kAck = 3,
  kQuery = 4,  // "small control message containing the current sequence numbers"
  kState = 5,  // reply to a query
  kClose = 6,
};

// Per-conversation counters, registry-backed: each increment also feeds the
// process-wide net.il.* aggregate in /net/stats.  Atomic, so readable
// without the conversation lock.
struct IlConvMetrics {
  IlConvMetrics();

  obs::Counter msgs_sent;
  obs::Counter msgs_received;
  obs::Counter bytes_sent;
  obs::Counter bytes_received;
  obs::Counter retransmits;
  obs::Counter queries_sent;
  obs::Counter states_sent;
  obs::Counter dups_dropped;
  obs::Counter out_of_window;
  obs::Counter keepalives_sent;  // idle-connection probes
  obs::Counter deadman_closes;   // killed after too many unanswered queries

  void Reset();  // this conversation only; the aggregates keep counting
};

class IlProto;

class IlConv : public IpConv {
 public:
  enum class State {
    kClosed,
    kSyncer,    // actively connecting
    kSyncee,    // passively connecting (spawned by an announced conv)
    kEstablished,
    kListening,  // announced
    kClosing,
  };

  // "A small outstanding message window prevents too many incoming messages
  // from being buffered."
  static constexpr uint32_t kWindow = 20;

  IlConv(IlProto* proto, int index);

  std::string StatusText() override;

  const IlConvMetrics& metrics() const { return metrics_; }
  std::chrono::microseconds Srtt();

 private:
  struct Unacked {
    uint32_t id;
    Bytes payload;
    TimerWheel::Clock::time_point sent_at;
    bool retransmitted = false;
  };

  // Conversation-core hooks.
  QLock& conv_lock() override RETURN_CAPABILITY(lock_) { return lock_; }
  bool IdleLocked() override REQUIRES(lock_) { return state_ == State::kClosed; }
  bool ListeningLocked() override REQUIRES(lock_) { return state_ == State::kListening; }
  bool ReadyLocked() override REQUIRES(lock_) { return state_ == State::kEstablished; }
  Status ConnectLocked(uint16_t port, uint32_t isn) override REQUIRES(lock_);
  void AnnounceLocked() override REQUIRES(lock_) { state_ = State::kListening; }
  bool OpenLocked(IpSegment& seg, uint32_t isn, IpConv* listener) override REQUIRES(lock_);
  void CloseLocked() override REQUIRES(lock_);
  void DropLocked() override REQUIRES(lock_) { state_ = State::kClosed; }
  void RecycleLocked() override REQUIRES(lock_);
  void TimerLocked() override REQUIRES(lock_);
  Status SendMessage(Bytes payload) override P9_HOT_PATH MAY_BLOCK;  // window sleep
  void Input(IpSegment seg) override P9_HOT_PATH;

  void HandleAckLocked(uint32_t ack) REQUIRES(lock_);
  void DeliverDataLocked(uint32_t id, Bytes payload, std::vector<BlockPtr>* deliveries)
      P9_HOT_PATH REQUIRES(lock_);
  Status EmitLocked(IlType type, uint32_t id, uint32_t ack, const Bytes& payload)
      REQUIRES(lock_);
  std::chrono::microseconds RtoLocked() const REQUIRES(lock_);
  void RttSampleLocked(std::chrono::microseconds sample) REQUIRES(lock_);
  // The handshake completed: established, with the backoff reset.
  void EstablishLocked() REQUIRES(lock_);

  // Conversation lock: ordered after il.proto (demux holds both), before
  // stream.queue (delivery) and timer (ArmTimerLocked).
  QLock lock_{"il.conv"};

  State state_ GUARDED_BY(lock_) = State::kClosed;

  // Send side.
  uint32_t start_ GUARDED_BY(lock_) = 0;  // initial sequence chosen at handshake
  uint32_t next_ GUARDED_BY(lock_) = 0;   // id of the next message to send
  std::deque<Unacked> unacked_ GUARDED_BY(lock_);

  // Receive side.
  uint32_t recvd_ GUARDED_BY(lock_) = 0;  // highest in-sequence id received
  std::map<uint32_t, Bytes> out_of_order_ GUARDED_BY(lock_);

  // Adaptive timing (§3: "a round-trip timer is used to calculate
  // acknowledge and retransmission times in terms of the network speed").
  std::chrono::microseconds srtt_ GUARDED_BY(lock_){0};
  std::chrono::microseconds mdev_ GUARDED_BY(lock_){0};
  int backoff_ GUARDED_BY(lock_) = 0;
  TimerWheel::Clock::time_point last_rexmit_ GUARDED_BY(lock_){};
  uint32_t last_rexmit_id_ GUARDED_BY(lock_) = 0;
  int sync_tries_ GUARDED_BY(lock_) = 0;
  int close_tries_ GUARDED_BY(lock_) = 0;
  // Deadman: consecutive queries the peer never answered.  Any Ack or State
  // from the peer resets it; crossing kDeadmanQueries kills the connection
  // (faster than waiting out the full backoff ladder on a dead link).
  int unanswered_queries_ GUARDED_BY(lock_) = 0;

  IlConvMetrics metrics_;  // atomic counters; no lock needed
};

class IlProto : public IpProto {
 public:
  explicit IlProto(IpStack* ip);
  ~IlProto() override { Stop(); }

  std::string name() override { return "il"; }

  // The standard six plus a stats file with the per-conversation counters
  // (retransmits, queries, deadman kills) tests assert on.
  std::vector<std::string> ConvFileNames() override {
    return {"ctl", "data", "listen", "local", "remote", "status", "stats"};
  }
  Result<std::string> InfoText(NetConv* conv, const std::string& file) override;

 private:
  QLock& proto_lock() override RETURN_CAPABILITY(lock_) { return lock_; }
  std::unique_ptr<NetConv> NewConv(int index) override {
    return std::make_unique<IlConv>(this, index);
  }
  bool Parse(IpPacket& pkt, IpSegment* seg) override P9_HOT_PATH;
  bool Opens(const IpSegment& seg) override {
    return static_cast<IlType>(seg.flags) == IlType::kSync;
  }
  void NobodyHome(const IpSegment& seg) override;

  QLock lock_{"il.proto"};
};

}  // namespace plan9

#endif  // SRC_INET_IL_H_
