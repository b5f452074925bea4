// perfbench — plan9net's end-to-end benchmark on uncapped media.
//
// Boots a Plan 9 world inside this process: the file server musca and two
// terminals, helix and tern, each a Node of its own, on one EtherSegment
// with no bandwidth cap, no propagation delay and the paper's 1514-byte MTU.
// Nothing crosses a real link, so every figure is the program's own cost.
// One seeded workload then runs against the world (README.md says why each
// was chosen):
//
//   rpc-small   closed loop, 2 terminals, each with its own IL import of
//               musca's tree; op = open + 128-byte read + close of one of
//               64 small files
//   bulk-8k     closed loop, 2 terminals, each with its own IL import; op =
//               one 8 KB read or write, alternating, at a seeded offset of
//               a 1 MB file
//   dial-churn  open loop, 1 generator at 500 dials/s alternating
//               il!musca!echo and tcp!musca!echo against a 43,000-line
//               indexed ndb; op = CS translate + connect + 64-byte echo +
//               hangup, timed from its due time.  Not a BENCHMARK.json
//               workload (README.md says why); the traced binary runs its
//               op as the dial probe of the other two
//
// Every reply is checked against the seeded inputs.  The last line of
// standard output is one JSON object: end-to-end metrics from the plain
// binary, per-layer metrics from the traced one (built with
// P9BENCH_TRACED, which also links heapcount.cc).  run.py builds both and
// wraps the object in the benchmark's result line.
//
//   p9bench --workload rpc-small --seed 1 --seconds 20 [--setups 1]
//           [--rate 500] [--spans FILE]
//
// --rate changes dial-churn's offered load (README.md uses it to show the
// TCP dial ceiling); the benchmark always runs the default.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/rand.h"
#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/ninep/client.h"
#include "src/svc/exportfs.h"
#include "src/svc/listen.h"
#include "src/task/timers.h"
#include "src/world/boot.h"
#include "src/world/node.h"

#ifndef P9BENCH_TRACED
#define P9BENCH_TRACED 0
#endif

namespace p9bench {

#if P9BENCH_TRACED
uint64_t HeapAllocs();  // heapcount.cc
#endif

namespace {

using plan9::Bytes;
using plan9::Node;
using plan9::Proc;
using plan9::Rng;
using Clock = std::chrono::steady_clock;

constexpr bool kTraced = P9BENCH_TRACED != 0;

// --- workload shapes --------------------------------------------------------

constexpr int kClients = 2;            // closed-loop client threads
constexpr int kSmallFiles = 64;
constexpr size_t kSmallRead = 128;
constexpr size_t kBigSize = 1 << 20;
constexpr size_t kBlock = 8192;
constexpr size_t kBlocks = kBigSize / kBlock;
constexpr int kWritePatterns = 16;
constexpr size_t kNdbLines = 43'000;   // the paper's global file (§4.1)
constexpr size_t kEchoSize = 64;
constexpr int kEchoPayloads = 64;
constexpr size_t kProbeSize = 128;
constexpr int kDialProbes = 400;
// Long enough for caches, pools and lazy set-up to settle before timing.
constexpr auto kWarmupTime = std::chrono::seconds(1);

const char kLocalNdb[] = R"(ipnet=bench-net ip=135.104.9.0 ipmask=255.255.255.0
sys=musca
	dom=musca.research.bell-labs.com
	ip=135.104.9.6
sys=helix
	dom=helix.research.bell-labs.com
	ip=135.104.9.31
sys=tern
	dom=tern.research.bell-labs.com
	ip=135.104.9.32
il=exportfs port=17007
il=echo port=17032
tcp=echo port=7
)";
const char kExportRoot[] = "/usr/bench";
const char kMountPoint[] = "/n/musca";

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "p9bench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

void Check(const plan9::Status& s, const std::string& what) {
  if (!s.ok()) {
    Die(what + ": " + s.error().message());
  }
}

template <typename T>
T Need(plan9::Result<T> r, const std::string& what) {
  if (!r.ok()) {
    Die(what + ": " + r.error().message());
  }
  return std::move(*r);
}

Bytes SeededBytes(Rng& rng, size_t n) {
  Bytes b(n);
  for (auto& c : b) {
    c = static_cast<uint8_t>(rng.Next() >> 56);
  }
  return b;
}

// Nearest-rank percentile; `v` is sorted in place.
double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t Fnv1a(const uint8_t* p, size_t n, uint64_t h = 0xcbf29ce484222325ULL) {
  for (size_t i = 0; i < n; i++) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

// --- the seeded inputs ------------------------------------------------------

// Everything the world serves, derived from the workload seed alone.  The
// program sees only these generated bytes.
struct Inputs {
  explicit Inputs(uint64_t seed) {
    Rng rng(seed);
    ndb_global = plan9::SynthesizeGlobalNdb(kNdbLines, seed);
    for (int i = 0; i < kSmallFiles; i++) {
      small.push_back(SeededBytes(rng, kSmallRead + rng.Below(384)));
    }
    big = SeededBytes(rng, kBigSize);
    for (int i = 0; i < kWritePatterns; i++) {
      patterns.push_back(SeededBytes(rng, kBlock));
    }
    for (int i = 0; i < kEchoPayloads; i++) {
      echoes.push_back(SeededBytes(rng, kEchoSize));
    }
  }

  std::string ndb_global;
  std::vector<Bytes> small;
  Bytes big;
  std::vector<Bytes> patterns;
  std::vector<Bytes> echoes;
};

std::string_view AsText(const Bytes& b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

std::string SmallPath(const std::string& root, int i) {
  return plan9::StrFormat("%s/small/f%02d", root.c_str(), i);
}

// --- the world --------------------------------------------------------------

plan9::LinkParams UncappedEther() {
  plan9::LinkParams p;
  p.bandwidth_bps = 0;
  p.latency = std::chrono::microseconds(0);
  p.mtu = 1514;
  return p;
}

// musca serves its /usr/bench tree (exportfs over IL) and echo over IL and
// TCP; each terminal runs one private process that imports musca's tree.
// Member order is teardown order, reversed: the importing processes hang up
// first, then the terminals, then the file server, then the cable.
class World {
 public:
  explicit World(uint64_t seed) : inputs(seed) {
    db = std::make_shared<plan9::Ndb>();
    Check(db->Load(kLocalNdb), "load local ndb");
    Check(db->Load(inputs.ndb_global), "load global ndb");
    for (const char* attr : {"sys", "dom", "ip", "il", "tcp"}) {
      db->BuildIndex(attr);
    }

    musca = AddNode("musca", 6, plan9::Ipv4Addr::FromOctets(135, 104, 9, 6));
    terms.push_back(AddNode("helix", 31, plan9::Ipv4Addr::FromOctets(135, 104, 9, 31)));
    terms.push_back(AddNode("tern", 32, plan9::Ipv4Addr::FromOctets(135, 104, 9, 32)));

    auto* fs = musca->rootfs();
    std::string root = std::string(kExportRoot).substr(1);
    Check(fs->MkdirAll(root + "/small"), "mkdir");
    for (int i = 0; i < kSmallFiles; i++) {
      Check(fs->WriteFile(SmallPath(root, i), AsText(inputs.small[i])), "write small file");
    }
    Check(fs->WriteFile(root + "/big", AsText(inputs.big)), "write big file");

    StartOn(musca.get(), "exportfs", [](std::shared_ptr<Proc> p) {
      return plan9::StartExportfs(std::move(p), "il!*!exportfs");
    });
    StartOn(musca.get(), "echo-il", [](std::shared_ptr<Proc> p) {
      return plan9::StartEchoService(std::move(p), "il!*!echo");
    });
    StartOn(musca.get(), "echo-tcp", [](std::shared_ptr<Proc> p) {
      return plan9::StartEchoService(std::move(p), "tcp!*!echo");
    });

    for (auto& t : terms) {
      auto p = t->NewProcPrivate();
      Check(plan9::Import(p.get(), "il!musca!exportfs", kExportRoot, kMountPoint,
                          plan9::kMRepl),
            "import musca's tree on " + t->sysname());
      procs.push_back(std::move(p));
    }
  }

  Inputs inputs;
  plan9::EtherSegment ether{UncappedEther()};
  std::shared_ptr<plan9::Ndb> db;
  std::unique_ptr<Node> musca;
  std::vector<std::unique_ptr<Node>> terms;
  std::vector<std::unique_ptr<Proc>> procs;  // procs[i] runs on terms[i]

 private:
  std::unique_ptr<Node> AddNode(const char* name, uint8_t host, plan9::Ipv4Addr addr) {
    auto n = std::make_unique<Node>(name);
    n->AddEther(&ether, plan9::MacAddr{8, 0, 0x69, 2, 0x22, host}, addr,
                plan9::Ipv4Addr{0xffffff00});
    Check(plan9::BootNetwork(n.get(), db, kLocalNdb), std::string("boot ") + name);
    return n;
  }

  template <typename F>
  static void StartOn(Node* n, const std::string& name, F start) {
    Check(n->StartService(name,
                          [start](Node* node) {
                            return start(std::shared_ptr<Proc>(node->NewProc("bootes")));
                          }),
          "start " + name);
  }
};

// --- spans and latency histograms -------------------------------------------

// One timed call into a layer (traced binary).  Spans of one op share `op`;
// the op's root span has parent -1 and its children name the root by index.
struct Span {
  uint64_t op;
  int32_t parent;
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

enum class Outcome { kOk, kFailed, kMismatch };

// "what: error", or "" when `r` succeeded.
template <typename T>
std::string Why(const char* what, const plan9::Result<T>& r) {
  return r.ok() ? "" : std::string(what) + ": " + r.error().message();
}

// Latencies in log-spaced buckets, 128 to an octave (each 0.54% wide), from
// 1/16 us to about 67 s.  Its size is fixed however many ops a run makes,
// so the benchmark's own bookkeeping does not move rss_peak_mb.
class Histogram {
 public:
  void Add(double us) {
    double octaves = std::log2(std::max(us, kMinUs) / kMinUs);
    size_t b = static_cast<size_t>(octaves * kPerOctave);
    counts_[std::min(b, counts_.size() - 1)]++;
    n_++;
  }
  void Merge(const Histogram& o) {
    for (size_t b = 0; b < counts_.size(); b++) {
      counts_[b] += o.counts_[b];
    }
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }

  // Nearest-rank percentile, placed within its bucket by its rank there.
  double Percentile(double p) const {
    if (n_ == 0) {
      return 0;
    }
    uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n_))), 1, n_);
    uint64_t below = 0;
    size_t b = 0;
    while (below + counts_[b] < rank) {
      below += counts_[b++];
    }
    double within = (static_cast<double>(rank - below) - 0.5) / counts_[b];
    return kMinUs * std::exp2((static_cast<double>(b) + within) / kPerOctave);
  }

 private:
  static constexpr double kMinUs = 1.0 / 16;
  static constexpr int kPerOctave = 128;
  std::vector<uint32_t> counts_ = std::vector<uint32_t>(30 * kPerOctave);
  uint64_t n_ = 0;
};

// The measurement phase's clock: `intervals` equal intervals from `start`.
// `start` is written before the phase turns to kMeasure.
struct Grid {
  Clock::time_point start;
  Clock::duration interval{1};
  size_t intervals = 0;
  double run_us = 0;  // the latency a failed op enters with
};
const Grid kUntimed{};

// What one client thread observed while the measurement phase was open:
// counts, generator lateness, and per interval the ops completed and their
// latencies.
class Recorder {
 public:
  struct Interval {
    double done = 0;
    Histogram latency_us;  // failed ops enter as run-length samples
  };

  explicit Recorder(int id = 0, const Grid& grid = kUntimed)
      : id_(id), grid_(&grid), intervals_(grid.intervals) {}

  int id() const { return id_; }
  const std::vector<Interval>& intervals() const { return intervals_; }
  const Histogram& late_us() const { return late_us_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t tcp_dials = 0;

  // Brackets one op; only ops begun while measuring are recorded.
  void BeginOp(uint64_t op, bool measuring, Clock::time_point start) {
    recording_ = measuring;
    op_ = op;
    if (kTraced && recording_) {
      root_ = static_cast<int32_t>(spans_.size());
      spans_.push_back(Span{op_, -1, "op", start, start});
    }
  }
  // Latency runs from `due`: the start of a closed-loop op, the scheduled
  // time of an open-loop one.  An op that ends after the clock stopped
  // counts as attempted but falls in no interval.
  void EndOp(Outcome o, Clock::time_point due, Clock::time_point start, Clock::time_point end) {
    if (!recording_) {
      return;
    }
    const bool ok = o == Outcome::kOk;
    attempted++;
    failed += !ok;
    mismatches += o == Outcome::kMismatch;
    if (start != due) {  // a closed-loop op is due when it starts
      late_us_.Add(Micros(start - due));
    }
    auto i = static_cast<size_t>((end - grid_->start) / grid_->interval);
    if (i < intervals_.size()) {
      intervals_[i].done += ok;
      intervals_[i].latency_us.Add(ok ? Micros(end - due) : grid_->run_us);
    }
    if (kTraced) {
      spans_[static_cast<size_t>(root_)].end = end;
    }
    recording_ = false;
  }

  // Marks the op failed; the first measured failure's reason is kept for
  // the summary line.
  Outcome Fail(const std::string& why) {
    if (recording_ && first_failure_.empty()) {
      first_failure_ = why;
    }
    return Outcome::kFailed;
  }
  const std::string& first_failure() const { return first_failure_; }

  // Calls `f`, one call into a layer, and records it as a child span of the
  // current op.  Compiles to the bare call in the plain binary.
  template <typename F>
  auto Traced(const char* name, F&& f) {
    if constexpr (!kTraced) {
      return f();
    } else {
      if (!recording_) {
        return f();
      }
      auto t0 = Clock::now();
      auto r = f();
      spans_.push_back(Span{op_, root_, name, t0, Clock::now()});
      return r;
    }
  }

 private:
  int id_;
  const Grid* grid_;
  std::vector<Interval> intervals_;
  Histogram late_us_;
  std::vector<Span> spans_;
  std::string first_failure_;
  bool recording_ = false;
  uint64_t op_ = 0;
  int32_t root_ = -1;
};

// --- the workloads ----------------------------------------------------------

// One client's state for a workload; Op runs one operation.
class Client {
 public:
  Client(World& w, int id, uint64_t seed)
      : w_(w), id_(id), rng_(seed * 1000003 + static_cast<uint64_t>(id) + 1) {}
  virtual ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  virtual Outcome Op(Recorder& r) = 0;
  // Payload bytes one successful op moves, headers excluded.
  virtual size_t Payload() const = 0;
  // Checks made once the clock has stopped (bulk-8k's read-back).
  virtual Outcome Finish() { return Outcome::kOk; }

 protected:
  Proc* proc() { return w_.procs[static_cast<size_t>(id_)].get(); }

  World& w_;
  int id_;
  Rng rng_;
};

class RpcSmallClient : public Client {
 public:
  RpcSmallClient(World& w, int id, uint64_t seed) : Client(w, id, seed) {
    for (int i = 0; i < kSmallFiles; i++) {
      paths_.push_back(SmallPath(kMountPoint, i));
    }
  }

  size_t Payload() const override { return kSmallRead; }

  Outcome Op(Recorder& r) override {
    size_t f = rng_.Below(kSmallFiles);
    Proc* p = proc();
    auto fd = r.Traced("ns.open", [&] { return p->Open(paths_[f], plan9::kORead); });
    if (!fd.ok()) {
      return r.Fail(Why("open", fd));
    }
    uint8_t buf[kSmallRead];
    auto n = r.Traced("ns.read", [&] { return p->Read(*fd, buf, sizeof buf); });
    auto closed = r.Traced("ns.close", [&] { return p->Close(*fd); });
    if (!n.ok() || !closed.ok()) {
      return r.Fail(Why("read", n) + Why("close", closed));
    }
    if (*n != kSmallRead || std::memcmp(buf, w_.inputs.small[f].data(), kSmallRead) != 0) {
      return Outcome::kMismatch;
    }
    return Outcome::kOk;
  }

 private:
  std::vector<std::string> paths_;
};

// Client i reads and writes only the blocks b with b % kClients == i, so it
// knows every byte it should read back without coordinating.
class Bulk8kClient : public Client {
 public:
  Bulk8kClient(World& w, int id, uint64_t seed) : Client(w, id, seed) {
    fd_ = Need(proc()->Open(std::string(kMountPoint) + "/big", plan9::kORdWr), "open big");
    for (size_t b = 0; b < kBlocks; b++) {
      expect_.push_back(w.inputs.big.data() + b * kBlock);
    }
  }
  ~Bulk8kClient() override { (void)proc()->Close(fd_); }

  size_t Payload() const override { return kBlock; }

  Outcome Op(Recorder& r) override {
    size_t block = rng_.Below(kBlocks / kClients) * kClients + static_cast<size_t>(id_);
    bool write = (ops_++ & 1) != 0;
    Proc* p = proc();
    auto sought = p->Seek(fd_, static_cast<int64_t>(block * kBlock), plan9::kSeekSet);
    if (!sought.ok()) {
      return r.Fail(Why("seek", sought));
    }
    if (write) {
      const Bytes& data = w_.inputs.patterns[rng_.Below(kWritePatterns)];
      auto n = r.Traced("ns.write", [&] { return p->Write(fd_, data.data(), data.size()); });
      if (!n.ok() || *n != kBlock) {
        return r.Fail(n.ok() ? "short write" : Why("write", n));
      }
      expect_[block] = data.data();
      return Outcome::kOk;
    }
    if (!ReadBlock(r)) {
      return r.Fail("read of an 8 KB block failed or came up short");
    }
    return std::memcmp(buf_, expect_[block], kBlock) == 0 ? Outcome::kOk : Outcome::kMismatch;
  }

  // Reads back every block this client owns and compares checksums.
  Outcome Finish() override {
    Recorder untimed;
    uint64_t got = Fnv1a(nullptr, 0);
    uint64_t want = got;
    for (size_t b = static_cast<size_t>(id_); b < kBlocks; b += kClients) {
      if (!proc()->Seek(fd_, static_cast<int64_t>(b * kBlock), plan9::kSeekSet).ok() ||
          !ReadBlock(untimed)) {
        return Outcome::kFailed;
      }
      got = Fnv1a(buf_, kBlock, got);
      want = Fnv1a(expect_[b], kBlock, want);
    }
    return got == want ? Outcome::kOk : Outcome::kMismatch;
  }

 private:
  // One 8 KB read at the fd's offset; 9P may return it in pieces.
  bool ReadBlock(Recorder& r) {
    size_t got = 0;
    while (got < kBlock) {
      auto n = r.Traced("ns.read", [&] { return proc()->Read(fd_, buf_ + got, kBlock - got); });
      if (!n.ok() || *n == 0) {
        return false;
      }
      got += *n;
    }
    return true;
  }

  int fd_ = -1;
  uint64_t ops_ = 0;
  std::vector<const uint8_t*> expect_;
  uint8_t buf_[kBlock];
};

class DialChurnClient : public Client {
 public:
  using Client::Client;

  size_t Payload() const override { return 2 * kEchoSize; }

  Outcome Op(Recorder& r) override {
    // Each consecutive pair of dials is one il and one tcp, in an order
    // drawn from the seed.
    if ((dials_ & 1) == 0) {
      il_first_ = rng_.Chance(0.5);
    }
    bool il = ((dials_++ & 1) == 0) == il_first_;
    const std::string proto = il ? "il" : "tcp";
    const Bytes& payload = w_.inputs.echoes[rng_.Below(kEchoPayloads)];
    Proc* p = proc();

    std::string dir;
    auto fd = r.Traced("dial", [&] { return plan9::Dial(p, proto + "!musca!echo", &dir); });
    if (!fd.ok()) {
      return r.Fail(Why("dial", fd) + " (" + proto + ")");
    }
    r.tcp_dials += !il;
    auto sent = r.Traced("ns.write", [&] { return p->Write(*fd, payload.data(), payload.size()); });
    uint8_t buf[kEchoSize];
    size_t got = 0;
    std::string read_error;
    while (sent.ok() && got < kEchoSize) {
      auto n = r.Traced("ns.read", [&] { return p->Read(*fd, buf + got, kEchoSize - got); });
      if (!n.ok() || *n == 0) {
        read_error = n.ok() ? "read: eof" : Why("read", n);
        break;
      }
      got += *n;
    }
    auto closed = r.Traced("ns.close", [&] { return p->Close(*fd); });
    if (!sent.ok() || !closed.ok() || got != kEchoSize) {
      return r.Fail(Why("write", sent) + read_error + Why("close", closed) + " on " + dir);
    }
    // CS must have picked the asked-for network, and the echo must match.
    if (!plan9::HasPrefix(dir, "/net/" + proto + "/") ||
        std::memcmp(buf, payload.data(), kEchoSize) != 0) {
      return Outcome::kMismatch;
    }
    return Outcome::kOk;
  }

 private:
  uint64_t dials_ = 0;
  bool il_first_ = true;
};

std::unique_ptr<Client> MakeClient(const std::string& workload, World& w, int id,
                                   uint64_t seed) {
  if (workload == "rpc-small") {
    return std::make_unique<RpcSmallClient>(w, id, seed);
  }
  if (workload == "bulk-8k") {
    return std::make_unique<Bulk8kClient>(w, id, seed);
  }
  return std::make_unique<DialChurnClient>(w, id, seed);
}

// --- program state read from outside ----------------------------------------

using Counters = std::map<std::string, double>;

// The registry as /net/stats serves it, read through a process.
Counters ReadStats(Proc* p) {
  Counters c;
  auto text = Need(p->ReadFile("/net/stats"), "read /net/stats");
  for (const auto& line : plan9::GetFields(text, "\n", true)) {
    auto f = plan9::Tokenize(line);
    if (f.size() >= 2) {
      c[f[0]] = std::atof(f[1].c_str());
    }
  }
  return c;
}

struct Usage {
  double cpu_s = 0;
  double vol_ctxsw = 0;
  double maxrss_kb = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return Usage{secs(ru.ru_utime) + secs(ru.ru_stime), static_cast<double>(ru.ru_nvcsw),
               static_cast<double>(ru.ru_maxrss)};
}

// Threads of this process, from its own /proc/self/status.
double ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atof(line.c_str() + 8);
    }
  }
  return 0;
}

// Conversation directories under /net/<proto>, as ls would list them.
double ConvDirs(Proc* p, const std::string& proto) {
  auto dirs = Need(p->ReadDir("/net/" + proto), "ls /net/" + proto);
  return static_cast<double>(std::count_if(dirs.begin(), dirs.end(), [](const plan9::Dir& d) {
    return !d.name.empty() && std::all_of(d.name.begin(), d.name.end(), [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) != 0;
    });
  }));
}

struct Snapshot {
  Counters stats;
  Usage usage;
  double threads = 0;
  uint64_t heap_allocs = 0;

  static Snapshot Take(Proc* p) {
    Snapshot s;
    s.stats = ReadStats(p);
    s.usage = ReadUsage();
    s.threads = ThreadCount();
#if P9BENCH_TRACED
    s.heap_allocs = HeapAllocs();
#endif
    return s;
  }
};

// Named results with their units, in name order.
struct Metrics {
  struct Value {
    double value;
    const char* unit;
  };
  void Put(const std::string& name, const char* unit, double value) {
    values[name] = Value{value, unit};
  }
  std::map<std::string, Value> values;
};

// --- probes (traced binary) -------------------------------------------------

// Times `n` calls of `f` and returns the median in microseconds; a call
// returning false is a mismatch and fails the run.
template <typename F>
double ProbeP50(int n, uint64_t* mismatches, F f) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    auto t0 = Clock::now();
    bool ok = f(i);
    us.push_back(Micros(Clock::now() - t0));
    *mismatches += !ok;
  }
  return Percentile(us, 50);
}

// Writes `msg` on fd and reads the same number of bytes back from it.
bool EchoRoundTrip(Proc* p, int fd, const Bytes& msg) {
  if (!p->Write(fd, msg.data(), msg.size()).ok()) {
    return false;
  }
  Bytes back(msg.size());
  size_t got = 0;
  while (got < back.size()) {
    auto n = p->Read(fd, back.data() + got, back.size() - got);
    if (!n.ok() || *n == 0) {
      return false;
    }
    got += *n;
  }
  return back == msg;
}

// One probe per layer the op loop cannot isolate.  Each runs on its own
// connection after the measurement phase, so none disturbs the op figures.
void RunProbes(World& w, uint64_t seed, Metrics& m, uint64_t* mismatches) {
  Proc* p = w.procs[0].get();
  Rng rng(seed ^ 0x5eed);
  Bytes msg = SeededBytes(rng, kProbeSize);

  // ndb: indexed sys= lookups on the 43,000-line database.
  size_t systems = 0;
  for (const auto& e : w.db->entries()) {
    auto sys = e.Find("sys");
    systems += sys && plan9::HasPrefix(*sys, "synth");
  }
  m.Put("ndb.lookup_p50_us", "us", ProbeP50(20000, mismatches, [&](int) {
          auto name = plan9::StrFormat("synth%llu", (unsigned long long)rng.Below(systems));
          return w.db->Search("sys", name).size() == 1;
        }));

  // csdns: write the dial string to /net/cs, read the first candidate.
  m.Put("cs.translate_p50_us", "us", ProbeP50(1000, mismatches, [&](int i) {
          std::string proto = (i & 1) ? "tcp" : "il";
          auto fd = p->Open("/net/cs", plan9::kORdWr);
          if (!fd.ok()) {
            return false;
          }
          bool ok = p->WriteString(*fd, proto + "!musca!echo").ok() &&
                    p->Seek(*fd, 0, plan9::kSeekSet).ok();
          auto line = p->ReadString(*fd);
          (void)p->Close(*fd);
          return ok && line.ok() && plan9::HasPrefix(*line, "/net/" + proto + "/clone ");
        }));

  // inet/il: 128-byte echo on a raw IL data fd, no 9P.
  int efd = Need(plan9::Dial(p, "il!musca!echo"), "dial il echo");
  m.Put("il.echo_rtt_p50_us", "us",
        ProbeP50(2000, mismatches, [&](int) { return EchoRoundTrip(p, efd, msg); }));
  (void)p->Close(efd);

  // ninep: Tnop on a 9P session of its own to musca's exportfs.
  {
    int nfd = Need(plan9::Dial(p, "il!musca!exportfs"), "dial exportfs");
    auto transport = p->TransportForFd(nfd, true);
    Check(transport->WriteMsg(plan9::ToBytes(kExportRoot)), "exportfs root");
    plan9::NinepClient client(std::move(transport), "helix");
    m.Put("ninep.nop_rtt_p50_us", "us", ProbeP50(2000, mismatches, [&](int) {
            auto r = client.Rpc(plan9::TnopMsg());
            return r.ok() && r->type == plan9::FcallType::kRnop;
          }));
    (void)p->Close(nfd);
  }

  // stream: 128-byte round trip through a pipe to an echoing thread.
  {
    auto [a, b] = Need(p->Pipe(), "pipe");
    std::thread echo([p, b = b] {
      uint8_t buf[kProbeSize];
      for (;;) {
        auto n = p->Read(b, buf, sizeof buf);
        if (!n.ok() || *n == 0 || !p->Write(b, buf, *n).ok()) {
          return;
        }
      }
    });
    m.Put("stream.pipe_rtt_p50_us", "us",
          ProbeP50(5000, mismatches, [&](int) { return EchoRoundTrip(p, a, msg); }));
    (void)p->Close(a);
    echo.join();
    (void)p->Close(b);
  }
}

enum Phase : int { kWarmup, kMeasure, kStop };

// Samples the timer wheel's dispatch lag at a low fixed rate while the
// measurement phase is open: Schedule(0) and time until the callback runs.
class TimerLagProbe {
 public:
  explicit TimerLagProbe(const std::atomic<int>& phase)
      : thread_([this, &phase] {
          while (phase.load() != kStop) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            if (phase.load() != kMeasure) {
              continue;
            }
            auto t0 = Clock::now();
            plan9::TimerWheel::Default().Schedule(Clock::duration::zero(), [this, t0] {
              std::lock_guard<std::mutex> g(mu_);
              lag_us_.push_back(Micros(Clock::now() - t0));
            });
          }
        }) {}
  TimerLagProbe(const TimerLagProbe&) = delete;
  TimerLagProbe& operator=(const TimerLagProbe&) = delete;
  ~TimerLagProbe() { Stop(); }

  // Joins the sampler and waits out callbacks still queued on the wheel.
  std::vector<double> Stop() {
    if (thread_.joinable()) {
      thread_.join();
      plan9::TimerWheel::Default().Drain();
    }
    std::lock_guard<std::mutex> g(mu_);
    return lag_us_;
  }

 private:
  std::mutex mu_;
  std::vector<double> lag_us_;
  std::thread thread_;
};

// --- the run ----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int setups = 1;
  double rate = 500;  // dial-churn offered load, dials/s
  std::string spans_path;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    std::string k = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + k);
    }
    std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (k == "--setups") {
      o.setups = std::atoi(v.c_str());
    } else if (k == "--rate") {
      o.rate = std::atof(v.c_str());
    } else if (k == "--spans") {
      o.spans_path = v;
    } else {
      Die("unknown flag " + k);
    }
  }
  if (o.workload != "rpc-small" && o.workload != "bulk-8k" && o.workload != "dial-churn") {
    Die("--workload must be rpc-small, bulk-8k or dial-churn");
  }
  if (o.seconds <= 0 || o.setups < 1 || o.rate <= 0) {
    Die("--seconds, --setups and --rate must be positive");
  }
  return o;
}

// Closed loop: the next op starts when the previous one returns.
void RunClosed(Client& c, Recorder& r, const std::atomic<int>& phase) {
  for (uint64_t k = 0;; k++) {
    int ph = phase.load();
    if (ph == kStop) {
      return;
    }
    auto t0 = Clock::now();
    r.BeginOp(k * kClients + static_cast<uint64_t>(r.id()), ph == kMeasure, t0);
    Outcome o = c.Op(r);
    r.EndOp(o, t0, t0, Clock::now());
  }
}

// Open loop: op k is due at start + k/rate whether or not op k-1 finished;
// latency runs from the due time, so a stall charges every op it delays.
void RunOpen(Client& c, Recorder& r, double rate, const std::atomic<int>& phase) {
  // Wake at the due time, not up to the kernel's default 50 us timer slack
  // later: that slack is the generator's error, not the program's latency.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  auto start = Clock::now();
  auto period = std::chrono::duration<double>(1.0 / rate);
  for (uint64_t k = 0;; k++) {
    auto due =
        start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(k));
    std::this_thread::sleep_until(due);
    int ph = phase.load();
    if (ph == kStop) {
      return;
    }
    auto t0 = Clock::now();
    r.BeginOp(k, ph == kMeasure, t0);
    Outcome o = c.Op(r);
    r.EndOp(o, due, t0, Clock::now());
  }
}

// A stretch of the measurement phase: consecutive one-second intervals,
// merged until the stretch holds kWindowOps ops, so that its p99 has ten
// samples beyond it.  Each end-to-end figure is the median over windows, so
// a burst of outside load in one of them cannot move it.
constexpr size_t kWindowOps = 1000;

struct Window {
  double seconds = 0;
  double cpu_s = 0;
  double done = 0;
  Histogram latency_us;

  void Absorb(const Window& o) {
    seconds += o.seconds;
    cpu_s += o.cpu_s;
    done += o.done;
    latency_us.Merge(o.latency_us);
  }
};

// The clock and the process CPU time at one interval boundary.
struct Mark {
  Clock::time_point at;
  double cpu_s;
};

// `marks` holds one mark per interval boundary of the recorders' grid.
std::vector<Window> CutWindows(const std::vector<Recorder>& recs, const std::vector<Mark>& marks) {
  std::vector<Window> windows;
  Window acc;
  for (size_t i = 0; i + 1 < marks.size(); i++) {
    Window w;
    w.seconds = std::chrono::duration<double>(marks[i + 1].at - marks[i].at).count();
    w.cpu_s = marks[i + 1].cpu_s - marks[i].cpu_s;
    for (const auto& r : recs) {
      w.done += r.intervals()[i].done;
      w.latency_us.Merge(r.intervals()[i].latency_us);
    }
    acc.Absorb(w);
    if (acc.latency_us.count() >= kWindowOps) {
      windows.push_back(std::move(acc));
      acc = Window{};
    }
  }
  if (acc.seconds > 0) {
    if (windows.empty()) {
      windows.push_back(std::move(acc));
    } else {
      windows.back().Absorb(acc);  // a short tail joins the last full window
    }
  }
  return windows;
}

template <typename F>
double MedianOver(const std::vector<Window>& windows, F f) {
  std::vector<double> v;
  for (const auto& w : windows) {
    v.push_back(f(w));
  }
  return Percentile(v, 50);
}

void WriteSpans(const std::string& path, const std::vector<Recorder>& recs,
                Clock::time_point epoch) {
  std::ofstream out(path);
  out << "# op\tspan\tparent\tname\tstart_ns\tend_ns\n";
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
  };
  for (const auto& r : recs) {
    auto id = [&](int64_t idx) {
      return idx < 0 ? std::string("-") : plan9::StrFormat("%d.%lld", r.id(), (long long)idx);
    };
    const auto& spans = r.spans();
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      out << s.op << '\t' << id(static_cast<int64_t>(i)) << '\t' << id(s.parent) << '\t'
          << s.name << '\t' << ns(s.start) << '\t' << ns(s.end) << '\n';
    }
  }
  if (!out) {
    Die("cannot write " + path);
  }
}

// p50 of the spans named `name`, over all clients.
double SpanP50(const std::vector<Recorder>& recs, const char* name) {
  std::vector<double> us;
  for (const auto& r : recs) {
    for (const auto& s : r.spans()) {
      if (std::strcmp(s.name, name) == 0) {
        us.push_back(Micros(s.end - s.start));
      }
    }
  }
  return Percentile(us, 50);
}

std::string JsonNumber(double v) { return plan9::StrFormat("%.17g", v); }

// The clients' records, merged.  Every op begun in the measurement phase
// counts in `attempted`; ops that finished after the clock stopped count
// there but in no window.
struct Tally {
  explicit Tally(const std::vector<Recorder>& recs) {
    for (const auto& r : recs) {
      attempted += r.attempted;
      failed += r.failed;
      mismatches += r.mismatches;
      late_us.Merge(r.late_us());
      if (first_failure.empty()) {
        first_failure = r.first_failure();
      }
    }
  }
  void Count(Outcome o) {
    failed += o != Outcome::kOk;
    mismatches += o == Outcome::kMismatch;
  }
  double Completed() const { return static_cast<double>(attempted - failed); }

  Histogram late_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_failure;
};

// Counters and usage around the measurement phase.
struct Measured {
  Snapshot before;
  Snapshot after;
  std::vector<double> timer_lag_us;

  double Delta(const char* name) const {
    auto get = [name](const Counters& c) {
      auto it = c.find(name);
      return it == c.end() ? 0.0 : it->second;
    };
    return get(after.stats) - get(before.stats);
  }
};

// dial, inet/tcp, svc and dev: kDialProbes of dial-churn's ops, one after
// another once the measurement is over: CS translate, connect by name (il
// and tcp in a seeded order), 64-byte echo, hang up.  A failed dial counts
// in dial.failures_per_op and does not stop the run; a wrong echo is a
// mismatch.
void ProbeDials(World& w, uint64_t seed, Metrics& m, uint64_t* mismatches) {
  Proc* p = w.procs[0].get();
  DialChurnClient dialer(w, 0, seed);
  std::vector<Recorder> rec(1);
  Measured x;
  x.before = Snapshot::Take(p);
  for (int i = 0; i < kDialProbes; i++) {
    auto t0 = Clock::now();
    rec[0].BeginOp(static_cast<uint64_t>(i), true, t0);
    Outcome o = dialer.Op(rec[0]);
    rec[0].EndOp(o, t0, t0, Clock::now());
    *mismatches += o == Outcome::kMismatch;
  }
  x.after = Snapshot::Take(p);
  const double dials = kDialProbes;
  m.Put("dial.call_p50_us", "us", SpanP50(rec, "dial"));
  m.Put("dial.failures_per_op", "fail/op", x.Delta("net.dial.failures") / dials);
  m.Put("tcp.segs_per_dial", "seg/dial",
        x.Delta("net.tcp.segs-sent") / std::max(static_cast<double>(rec[0].tcp_dials), 1.0));
  m.Put("tcp.resends", "count", x.Delta("net.tcp.resends"));
  m.Put("svc.threads_per_call", "thread/call", (x.after.threads - x.before.threads) / dials);
  m.Put("dev.il_convs", "count", ConvDirs(p, "il"));
  m.Put("dev.tcp_convs", "count", ConvDirs(p, "tcp"));
}

// The traced binary's per-layer metrics: span medians, counter deltas per
// completed op, and the probes.
void PutPerLayer(Metrics& m, World& w, const std::vector<Recorder>& recs, Tally& t,
                 const Measured& x, uint64_t seed) {
  const double ops = std::max(t.Completed(), 1.0);
  m.Put("ns.open_p50_us", "us", SpanP50(recs, "ns.open"));
  m.Put("ns.read_p50_us", "us", SpanP50(recs, "ns.read"));
  m.Put("ns.write_p50_us", "us", SpanP50(recs, "ns.write"));
  m.Put("ns.close_p50_us", "us", SpanP50(recs, "ns.close"));
  m.Put("ninep.rpcs_per_op", "rpc/op", x.Delta("ninep.rpc.count") / ops);
  m.Put("stream.copies_per_msg", "copy/msg",
        x.Delta("stream.block.copies") / std::max(x.Delta("stream.block.msgs"), 1.0));
  const double hits = x.Delta("stream.block.pool-hit");
  m.Put("stream.pool_hit_rate", "ratio",
        hits / std::max(hits + x.Delta("stream.block.pool-miss"), 1.0));
  m.Put("il.msgs_per_op", "msg/op", x.Delta("net.il.msgs-sent") / ops);
  m.Put("il.resends_per_op", "msg/op",
        (x.Delta("net.il.resends") + x.Delta("net.il.queries")) / ops);
  m.Put("ip.frags_per_op", "frag/op", x.Delta("net.ip.frags-sent") / ops);
  m.Put("ip.reassembly_drops", "count", x.Delta("net.ip.reassembly-drops"));
  m.Put("sim.frames_per_op", "frame/op", x.Delta("sim.media.frames-sent") / ops);
  std::vector<double> lag = x.timer_lag_us;
  m.Put("task.timer_lag_p50_us", "us", Percentile(lag, 50));
  m.Put("task.timer_lag_p99_us", "us", Percentile(lag, 99));
  m.Put("task.ctxsw_per_op", "ctxsw/op",
        (x.after.usage.vol_ctxsw - x.before.usage.vol_ctxsw) / ops);
  m.Put("svc.threads_end", "count", x.after.threads);
  m.Put("heap.allocs_per_op", "alloc/op",
        static_cast<double>(x.after.heap_allocs - x.before.heap_allocs) / ops);
  m.Put("bench.gen_late_p99_us", "us", t.late_us.Percentile(99));
  RunProbes(w, seed, m, &t.mismatches);
  ProbeDials(w, seed, m, &t.mismatches);
}

// The result object: the contract's keys, then facts about the run and the
// build that a reader of one number needs.
std::string ResultJson(const Tally& t, size_t windows, size_t latency_samples,
                       const std::vector<double>& setup_s, const Metrics& m) {
  std::string setups;
  for (double s : setup_s) {
    setups += (setups.empty() ? "" : ", ") + JsonNumber(s);
  }
  std::string json = plan9::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"mismatches\": %llu, "
      "\"latency_samples\": %zu, \"windows\": %zu, \"setup_runs_s\": [%s], "
      "\"compiler\": \"%s\", \"ndebug\": %s, \"metrics\": {",
      t.mismatches == 0 ? "true" : "false", (unsigned long long)t.attempted,
      (unsigned long long)t.failed, (unsigned long long)t.mismatches, latency_samples,
      windows, setups.c_str(), __VERSION__,
#ifdef NDEBUG
      "true"
#else
      "false"
#endif
  );
  bool first = true;
  for (const auto& [name, metric] : m.values) {
    json += plan9::StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                             name.c_str(), JsonNumber(metric.value).c_str(), metric.unit);
    first = false;
  }
  return json + "}}";
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const std::string& wl = opt.workload;
  const bool open_loop = wl == "dial-churn";
  const int nclients = open_loop ? 1 : kClients;

  // Set-up, several times: boot the world and run the first op.  The last
  // world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < opt.setups; i++) {
    clients.clear();
    world.reset();
    auto t0 = Clock::now();
    world = std::make_unique<World>(opt.seed);
    for (int c = 0; c < nclients; c++) {
      clients.push_back(MakeClient(wl, *world, c, opt.seed));
    }
    Recorder untimed;
    if (clients[0]->Op(untimed) != Outcome::kOk) {
      Die("first op of " + wl + " failed");
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // Warm up, then measure for whole one-second intervals.
  const long intervals = std::max(1L, std::lround(opt.seconds));
  Grid grid;
  grid.interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds / static_cast<double>(intervals)));
  grid.intervals = static_cast<size_t>(intervals);
  grid.run_us = opt.seconds * 1e6;
  auto stats_proc = world->musca->NewProc();
  std::atomic<int> phase{kWarmup};
  std::vector<Recorder> recs;
  for (int c = 0; c < nclients; c++) {
    recs.emplace_back(c, grid);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < recs.size(); c++) {
    threads.emplace_back([&, c] {
      if (open_loop) {
        RunOpen(*clients[c], recs[c], opt.rate, phase);
      } else {
        RunClosed(*clients[c], recs[c], phase);
      }
    });
  }
  std::unique_ptr<TimerLagProbe> lag_probe;
  if (kTraced) {
    lag_probe = std::make_unique<TimerLagProbe>(phase);
  }
  std::this_thread::sleep_for(kWarmupTime);

  Measured measured;
  measured.before = Snapshot::Take(stats_proc.get());
  const auto t_start = Clock::now();
  grid.start = t_start;
  std::vector<Mark> marks{{t_start, ReadUsage().cpu_s}};
  phase = kMeasure;
  for (long i = 1; i <= intervals; i++) {
    std::this_thread::sleep_until(t_start + i * grid.interval);
    marks.push_back(Mark{Clock::now(), ReadUsage().cpu_s});
  }
  phase = kStop;
  for (auto& t : threads) {
    t.join();
  }
  const double elapsed = std::chrono::duration<double>(marks.back().at - t_start).count();
  measured.after = Snapshot::Take(stats_proc.get());
  if (lag_probe) {
    measured.timer_lag_us = lag_probe->Stop();
  }

  Tally tally(recs);
  for (auto& c : clients) {
    tally.Count(c->Finish());
  }
  const std::vector<Window> windows = CutWindows(recs, marks);
  size_t latency_samples = 0;
  for (const auto& w : windows) {
    latency_samples += w.latency_us.count();
  }
  const double payload = static_cast<double>(clients[0]->Payload());

  Metrics m;
  std::vector<double> sorted_setup_s = setup_s;
  m.Put("setup_s", "s", Percentile(sorted_setup_s, 50));
  m.Put("ops_per_s", "1/s", MedianOver(windows, [](const Window& w) { return w.done / w.seconds; }));
  m.Put("latency_p50_us", "us",
        MedianOver(windows, [](const Window& w) { return w.latency_us.Percentile(50); }));
  m.Put("latency_p99_us", "us",
        MedianOver(windows, [](const Window& w) { return w.latency_us.Percentile(99); }));
  m.Put("goodput_MBps", "MB/s",
        MedianOver(windows, [&](const Window& w) { return w.done * payload / w.seconds / 1e6; }));
  m.Put("cpu_us_per_op", "us", MedianOver(windows, [](const Window& w) {
          return w.cpu_s * 1e6 / std::max(w.done, 1.0);
        }));
  m.Put("rss_peak_mb", "MB", measured.after.usage.maxrss_kb / 1024.0);

  if (kTraced) {
    PutPerLayer(m, *world, recs, tally, measured, opt.seed);
    if (!opt.spans_path.empty()) {
      WriteSpans(opt.spans_path, recs, t_start);
    }
  }

  // Human-readable lines first; the JSON object is the last line.
  std::printf("workload %s seed %llu: %.2f s measured in %zu windows, %llu attempted, "
              "%llu failed (fail_ratio %.6f), %llu mismatches, %zu latency samples\n",
              wl.c_str(), (unsigned long long)opt.seed, elapsed, windows.size(),
              (unsigned long long)tally.attempted, (unsigned long long)tally.failed,
              tally.attempted > 0 ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
                              : 0.0,
              (unsigned long long)tally.mismatches, latency_samples);
  if (!tally.first_failure.empty()) {
    std::printf("first failure: %s\n", tally.first_failure.c_str());
  }
  const std::string json = ResultJson(tally, windows.size(), latency_samples, setup_s, m);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);

  // Orderly teardown: clients close their fds, then the world stops.
  clients.clear();
  stats_proc.reset();
  world.reset();
  return 0;
}

}  // namespace
}  // namespace p9bench

int main(int argc, char** argv) { return p9bench::Main(argc, argv); }
