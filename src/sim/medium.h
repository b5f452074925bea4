// Simulated-media parameters.
//
// Plan 9's networks span "a hierarchy of network speeds": 125 Mb/s Cyclone
// fiber, 10 Mb/s Ethernet, Datakit circuits, ISDN and 9600-baud serial
// lines.  Every simulated medium is configured with a LinkParams describing
// bandwidth, propagation latency and a FaultProfile (loss and worse), whose
// seeded Rng makes every experiment replay deterministically.
#ifndef SRC_SIM_MEDIUM_H_
#define SRC_SIM_MEDIUM_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "src/base/bytes.h"
#include "src/base/result.h"
#include "src/obs/metrics.h"
#include "src/sim/faults.h"
#include "src/task/timers.h"

namespace plan9 {

struct LinkParams {
  // Bits per second; 0 means infinitely fast (no serialization delay).
  uint64_t bandwidth_bps = 0;
  // One-way propagation delay.
  std::chrono::microseconds latency{0};
  // Seed for the fault injector's Rng.
  uint64_t seed = 1;
  // Maximum frame size; larger sends fail (media enforce their MTU).
  size_t mtu = 64 * 1024;
  // Adversarial link behaviour: loss bursts, duplication, reordering, bit
  // corruption, scripted partitions.  Driven by `seed`, so replays exactly.
  FaultProfile faults;

  static LinkParams Perfect() { return LinkParams{}; }

  // The paper's media, by the numbers it quotes.
  static LinkParams Ether10() {
    return LinkParams{.bandwidth_bps = 10'000'000,
                      .latency = std::chrono::microseconds(200),
                      .mtu = 1514,
                      .faults = {}};
  }
  static LinkParams Datakit() {
    // URP/Datakit measured 0.22 MB/s and 1.75 ms RTT latency in Table 1;
    // circuits through the switch were ~2 Mb/s with millisecond latencies.
    return LinkParams{.bandwidth_bps = 2'000'000,
                      .latency = std::chrono::microseconds(700),
                      .mtu = 2048,
                      .faults = {}};
  }
  static LinkParams Cyclone() {
    // "two VME cards ... drive the lines at 125 Mbit/sec"; software copies
    // directly from system memory to fiber.
    return LinkParams{.bandwidth_bps = 125'000'000,
                      .latency = std::chrono::microseconds(50),
                      .mtu = 64 * 1024,
                      .faults = {}};
  }
  static LinkParams Serial9600() {
    return LinkParams{.bandwidth_bps = 9'600,
                      .latency = std::chrono::microseconds(100),
                      .mtu = 1024,
                      .faults = {}};
  }
};

// Counters every medium keeps; the ether device's `stats` file reports them.
// Registry-backed: increments also feed the process-wide sim.media.*
// aggregates in /net/stats.  Atomic, so readable without the medium's lock.
struct MediaStats {
  MediaStats();

  obs::Counter frames_sent;
  obs::Counter frames_delivered;
  obs::Counter frames_dropped;
  obs::Counter bytes_sent;
  obs::Counter bytes_delivered;
  obs::Counter send_errors;  // oversize etc.
};

// The transmit model every medium shares: a line that serializes one frame
// at a time at the configured bandwidth, then the propagation latency, the
// fault injector's verdict and the counters.  Used under the medium's lock.
struct Transmitter {
  LinkParams params;
  FaultInjector faults;
  TimerWheel::Clock::time_point busy_until;
  MediaStats stats;  // atomic counters; readable without the lock

  // When a sent frame arrives: after `delay`, and again after `duplicate`
  // when the injector duplicated it; never when it was lost.
  struct Plan {
    bool lost = false;
    TimerWheel::Clock::duration delay{0};
    std::optional<TimerWheel::Clock::duration> duplicate;

    // Run `deliver` on the timer kproc at each arrival (the duplicate runs
    // a copy).
    void Schedule(std::function<void()> deliver) const;
  };

  // `now` is the fault script's epoch, shared by a medium's directions.
  void Configure(const LinkParams& link, uint64_t seed, TimerWheel::Clock::time_point now);

  // Puts one frame of `frame_size` bytes on the line.  Fails with `closed`
  // (the medium's own error) when that is set, and on oversize.  Fault
  // evaluation and bit damage cover `corruptible`: the whole frame on a
  // wire, the payload on an ether.
  Result<Plan> Transmit(const char* closed, size_t frame_size, Bytes* corruptible);
};

}  // namespace plan9

#endif  // SRC_SIM_MEDIUM_H_
