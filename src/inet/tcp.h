// TCP (§2.3, §3).
//
// The paper's baseline transport: a byte-stream protocol that "has a high
// overhead and does not preserve delimiters".  This implementation is a
// classic 1993-shape TCP: three-way handshake, cumulative acks, a sliding
// window, adaptive RTO — and *blind* go-back-N retransmission on timeout,
// which is exactly the behaviour §3 contrasts IL's query scheme against
// ("blind retransmission would cause further congestion").
//
// Delimiters are deliberately not preserved: inbound bytes are delivered as
// undelimited blocks, so 9P over TCP needs the framing module
// (src/ninep/framing) — "we provide mechanisms to marshal messages before
// handing them to the system".
#ifndef SRC_INET_TCP_H_
#define SRC_INET_TCP_H_

#include <chrono>
#include <deque>
#include <map>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/inet/ipconv.h"
#include "src/obs/metrics.h"

namespace plan9 {

// Per-conversation counters, registry-backed: each increment also feeds the
// process-wide net.tcp.* aggregate in /net/stats.
struct TcpConvMetrics {
  TcpConvMetrics();

  obs::Counter segs_sent;
  obs::Counter segs_received;
  obs::Counter bytes_sent;
  obs::Counter bytes_received;
  obs::Counter retransmit_segs;
  obs::Counter retransmit_bytes;
  obs::Counter dup_segs;

  void Reset();  // this conversation only
};

class TcpProto;

class TcpConv : public IpConv {
 public:
  enum class State {
    kClosed,
    kListen,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kClosing,
    kLastAck,
    kTimeWait,
  };

  static constexpr size_t kMss = 1400;
  static constexpr size_t kSendWindow = 16 * 1024;   // fixed cwnd, 1993-style
  static constexpr size_t kSendBufMax = 64 * 1024;   // user write backpressure

  TcpConv(TcpProto* proto, int index);

  std::string StatusText() override;

  const TcpConvMetrics& metrics() const { return metrics_; }
  std::chrono::microseconds Srtt();

 private:
  class Module;

  // Conversation-core hooks.
  QLock& conv_lock() override RETURN_CAPABILITY(lock_) { return lock_; }
  bool IdleLocked() override REQUIRES(lock_) { return state_ == State::kClosed; }
  bool ListeningLocked() override REQUIRES(lock_) { return state_ == State::kListen; }
  // A half-closed connection (the peer sent FIN) is still writable.
  bool ReadyLocked() override REQUIRES(lock_) {
    return state_ == State::kEstablished || state_ == State::kCloseWait;
  }
  Status ConnectLocked(uint16_t port, uint32_t isn) override REQUIRES(lock_);
  void AnnounceLocked() override REQUIRES(lock_) { state_ = State::kListen; }
  bool OpenLocked(IpSegment& seg, uint32_t isn, IpConv* listener) override REQUIRES(lock_);
  void CloseLocked() override REQUIRES(lock_);
  void DropLocked() override REQUIRES(lock_) { ResetLocked(""); }
  void RecycleLocked() override REQUIRES(lock_);
  void TimerLocked() override REQUIRES(lock_);
  std::unique_ptr<StreamModule> NewModule() override;
  void Input(IpSegment seg) override P9_HOT_PATH;

  Status QueueBytes(const uint8_t* data, size_t n) P9_HOT_PATH MAY_BLOCK;  // user data path; sndbuf sleep
  void TrySendLocked() REQUIRES(lock_);
  void EmitLocked(uint16_t flags, uint32_t seq, size_t payload_off, size_t payload_len)
      REQUIRES(lock_);
  void RetransmitLocked() REQUIRES(lock_);
  void ProcessAckLocked(uint32_t ack, uint16_t wnd) REQUIRES(lock_);
  void ProcessDataLocked(uint32_t seq, Bytes payload, bool fin,
                         std::vector<BlockPtr>* deliveries, bool* peer_closed)
      REQUIRES(lock_);
  void EnterTimeWaitLocked() REQUIRES(lock_);
  void ResetLocked(const std::string& why) REQUIRES(lock_);
  std::chrono::microseconds RtoLocked() const REQUIRES(lock_);
  void RttSampleLocked(std::chrono::microseconds sample) REQUIRES(lock_);
  void MaybeSendFinLocked() REQUIRES(lock_);
  const char* StateNameLocked() const REQUIRES(lock_);

  // Conversation lock: ordered after tcp.proto (demux holds both), before
  // stream.queue (delivery) and timer (ArmTimerLocked).
  QLock lock_{"tcp.conv"};

  State state_ GUARDED_BY(lock_) = State::kClosed;

  // Send sequence space.  send_buf_ holds bytes [snd_una, snd_una+size).
  uint32_t iss_ GUARDED_BY(lock_) = 0;
  uint32_t snd_una_ GUARDED_BY(lock_) = 0;
  uint32_t snd_nxt_ GUARDED_BY(lock_) = 0;
  uint32_t snd_wnd_ GUARDED_BY(lock_) = kSendWindow;
  std::deque<uint8_t> send_buf_ GUARDED_BY(lock_);
  bool fin_pending_ GUARDED_BY(lock_) = false;  // user closed; FIN after the buffer
  bool fin_sent_ GUARDED_BY(lock_) = false;
  TimerWheel::Clock::time_point rtt_seg_sent_ GUARDED_BY(lock_);
  uint32_t rtt_seg_seq_ GUARDED_BY(lock_) = 0;  // sequence being timed (0 = none)
  bool rtt_timing_ GUARDED_BY(lock_) = false;

  // Receive sequence space.
  uint32_t irs_ GUARDED_BY(lock_) = 0;
  uint32_t rcv_nxt_ GUARDED_BY(lock_) = 0;
  std::map<uint32_t, Bytes> out_of_order_ GUARDED_BY(lock_);
  bool fin_received_ GUARDED_BY(lock_) = false;

  std::chrono::microseconds srtt_ GUARDED_BY(lock_){0};
  std::chrono::microseconds mdev_ GUARDED_BY(lock_){0};
  int backoff_ GUARDED_BY(lock_) = 0;
  int handshake_tries_ GUARDED_BY(lock_) = 0;

  TcpConv* listener_ GUARDED_BY(lock_) = nullptr;  // spawning conv (queued once up)
  TcpConvMetrics metrics_;  // atomic counters; no lock needed
};

class TcpProto : public IpProto {
 public:
  explicit TcpProto(IpStack* ip);
  ~TcpProto() override { Stop(); }

  std::string name() override { return "tcp"; }

  // The standard six plus a stats file with per-conversation retransmit and
  // duplicate-segment counters.
  std::vector<std::string> ConvFileNames() override {
    return {"ctl", "data", "listen", "local", "remote", "status", "stats"};
  }
  Result<std::string> InfoText(NetConv* conv, const std::string& file) override;

 private:
  QLock& proto_lock() override RETURN_CAPABILITY(lock_) { return lock_; }
  std::unique_ptr<NetConv> NewConv(int index) override {
    return std::make_unique<TcpConv>(this, index);
  }
  bool Parse(IpPacket& pkt, IpSegment* seg) override P9_HOT_PATH;
  bool Opens(const IpSegment& seg) override;
  // No one home: answer with RST so connects fail fast ("connection
  // refused") instead of timing out.
  void NobodyHome(const IpSegment& seg) override;

  QLock lock_{"tcp.proto"};
};

}  // namespace plan9

#endif  // SRC_INET_TCP_H_
