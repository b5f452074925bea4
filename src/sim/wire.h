// Wire — a full-duplex point-to-point framed link.
//
// Models the paper's point-to-point media (Cyclone fiber between file and
// CPU servers, serial lines, ISDN): each direction serializes frames at the
// configured bandwidth, delays them by the propagation latency, and may drop
// them.  Delivery callbacks run on the shared timer kproc and must not block.
#ifndef SRC_SIM_WIRE_H_
#define SRC_SIM_WIRE_H_

#include <functional>
#include <memory>

#include "src/base/bytes.h"
#include "src/base/thread_annotations.h"
#include "src/base/result.h"
#include "src/sim/faults.h"
#include "src/sim/medium.h"
#include "src/task/qlock.h"
#include "src/task/timers.h"

namespace plan9 {

class Wire {
 public:
  using RecvFn = std::function<void(Bytes frame)>;
  enum End { kA = 0, kB = 1 };

  explicit Wire(LinkParams params) : Wire(params, params) {}
  Wire(LinkParams a_to_b, LinkParams b_to_a);
  ~Wire();

  // Install the receive callback for one end.  Frames sent from the other
  // end are delivered to it after serialization + latency.
  void Attach(End end, RecvFn fn);
  void Detach(End end);

  // Transmit a frame from `from`; fails only on oversize.  Loss is silent
  // (the frame is counted dropped, never delivered) — real media don't
  // report collisions to software either.
  Status Send(End from, Bytes frame);

  const MediaStats& stats(End from);
  const FaultStats& fault_stats(End from);

  // Sever the link: nothing further is delivered in either direction.
  void Cut();

  // Temporary partition (the test's hand on the cable): while down, frames
  // sent in either direction drop as partition losses.  Frames already in
  // flight still arrive — propagation was committed at send time.
  void SetPartitioned(bool down);

 private:
  struct Direction : Transmitter {
    RecvFn recv;  // callback of the *receiving* end
  };

  struct Shared;
  std::shared_ptr<Shared> shared_;
};

}  // namespace plan9

#endif  // SRC_SIM_WIRE_H_
