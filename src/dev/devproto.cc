#include "src/dev/devproto.h"

#include "src/base/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/sim/chaos.h"

namespace plan9 {
namespace {

// Qid layout: [proto+1 : bits 20..27][conv+1 : bits 8..19][file kind : bits 0..7]
// Root-level observability files use the low qids 2..6 (proto qids start at
// 1<<20, so the space is free).
uint32_t QidRoot() { return 1; }
uint32_t QidObsFile(size_t kind) { return static_cast<uint32_t>(kind + 2); }
uint32_t QidProto(size_t p) { return static_cast<uint32_t>(p + 1) << 20; }
uint32_t QidClone(size_t p) { return QidProto(p) | 1; }
uint32_t QidConv(size_t p, size_t c) { return QidProto(p) | static_cast<uint32_t>(c + 1) << 8; }
uint32_t QidFile(size_t p, size_t c, size_t kind) { return QidConv(p, c) | (kind + 2); }

Bytes SliceText(const std::string& text, uint64_t offset, uint32_t count) {
  return offset >= text.size() ? Bytes{} : ToBytes(text.substr(offset, count));
}

// One entry of the tree: every file and directory under /net is device 'I'.
Dir Entry(std::string name, uint32_t path, uint32_t mode, const std::string& owner = "none") {
  Dir d;
  d.name = std::move(name);
  d.uid = owner;
  d.gid = owner;
  d.qid = Qid{(mode & kDmDir) != 0 ? path | kQidDirBit : path, 0};
  d.mode = mode;
  d.type = 'I';
  return d;
}

// The /net-level observability files: every node exports its
// metrics registry and flight recorder the same way the LANCE driver exports
// its stats file — as text, readable by cat, importable across machines.
//   /net/stats  the metrics registry, `key value` per line
//   /net/trace  the flight recorder ring, oldest first
//   /net/log    kLog events only (P9_LOG lines routed when tracing is on)
//   /net/ctl    writable: "trace on [kind...]", "trace off", "clear"
//   /net/chaos  writable: the chaos engine (sim/chaos.h); reads render the
//               seed, node/medium state and schedule, writes drive it
//               ("crash gnot", "seed 42 8", "run", ...)
constexpr const char* kObsFiles[] = {"stats", "trace", "log", "ctl", "chaos"};
constexpr size_t kObsFileCount = 5;

class ObsFileVnode : public GenVnode {
 public:
  ObsFileVnode(DirGen in, Qid qid, size_t kind) : GenVnode(std::move(in), qid), kind_(kind) {}

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    std::string text;
    const std::string name = kObsFiles[kind_];
    if (name == "stats") {
      text = obs::MetricsRegistry::Default().RenderText();
    } else if (name == "trace") {
      text = obs::FlightRecorder::Default().RenderText();
    } else if (name == "log") {
      text = obs::FlightRecorder::Default().RenderText(
          static_cast<uint32_t>(obs::TraceKind::kLog));
    } else if (name == "chaos") {
      ChaosEngine* engine = ChaosEngine::Current();
      text = engine != nullptr ? engine->StatusText() : "no chaos engine\n";
    } else {  // ctl reads back the current mask as ctl-writable lines
      text = StrFormat("trace mask %#x\ntrace sample %u\n",
                       obs::FlightRecorder::Default().mask(),
                       obs::Tracer::Default().sample_interval());
    }
    return SliceText(text, offset, count);
  }

  Result<uint32_t> Write(uint64_t offset, const Bytes& data) override {
    const std::string name = kObsFiles[kind_];
    if (name == "chaos") {
      ChaosEngine* engine = ChaosEngine::Current();
      if (engine == nullptr) {
        return Error("no chaos engine");
      }
      P9_RETURN_IF_ERROR(engine->Ctl(ToString(data)));
      return static_cast<uint32_t>(data.size());
    }
    if (name != "ctl") {
      return Error(kErrPerm);
    }
    P9_RETURN_IF_ERROR(obs::FlightRecorder::Default().Ctl(ToString(data)));
    return static_cast<uint32_t>(data.size());
  }

 private:
  size_t kind_;
};

// ---------------------------------------------------------------------------

DirGen ConvGen(NetProto* proto, size_t p, NetConv* conv);

// Every file of a protocol directory but the conversation directories: the
// clone file and each conversation's ctl, data, listen and info files.
// Opening clone reserves a conversation and opening listen waits for a
// call; either way the fd becomes that conversation's ctl file (§2.3).
class ConvFileVnode : public GenVnode {
 public:
  ConvFileVnode(DirGen in, Qid qid, NetProto* proto, size_t p, NetConv* conv, std::string name)
      : GenVnode(std::move(in), qid), proto_(proto), p_(p), conv_(conv), name_(std::move(name)) {}

  ~ConvFileVnode() override { ReleaseRef(); }

  Status Open(uint8_t mode, const std::string& user) override {
    if (name_ == "clone") {
      P9_ASSIGN_OR_RETURN(conv_, proto_->Clone());
      conv_->set_owner("network");  // the user claims it below
    } else if (name_ == "listen") {
      // "If the process opens the listen file it blocks until an incoming
      // call is received."
      auto idx = conv_->Listen();  // a conversation number, not an fd
      if (!idx.ok()) {
        return idx.error();
      }
      NetConv* accepted = proto_->Conv(static_cast<size_t>(*idx));
      if (accepted == nullptr) {
        return Error("listen lost the call");
      }
      conv_ = accepted;
    } else if (name_ == "data") {
      // "When the data file is opened the connection is established."
      P9_RETURN_IF_ERROR(conv_->WaitReady());
    }
    if (name_ == "clone" || name_ == "listen") {
      name_ = "ctl";
      size_t c = static_cast<size_t>(conv_->index());
      Become(ConvGen(proto_, p_, conv_), Qid{QidFile(p_, c, 0), 0});
    }
    conv_->refs.fetch_add(1);
    holds_ref_ = true;
    if (conv_->owner() == "network" && !user.empty()) {
      conv_->set_owner(user);
    }
    return Status::Ok();
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    if (name_ == "ctl") {
      return SliceText(StrFormat("%d", conv_->index()), offset, count);
    }
    if (name_ == "data") {
      Bytes buf(count);
      P9_ASSIGN_OR_RETURN(size_t n, conv_->Read(buf.data(), buf.size()));
      buf.resize(n);
      return buf;
    }
    P9_ASSIGN_OR_RETURN(std::string text, proto_->InfoText(conv_, name_));
    return SliceText(text, offset, count);
  }

  Result<uint32_t> Write(uint64_t offset, const Bytes& data) override {
    if (name_ == "ctl") {
      P9_RETURN_IF_ERROR(conv_->Ctl(ToString(data)));
      return static_cast<uint32_t>(data.size());
    }
    if (name_ == "data") {
      P9_ASSIGN_OR_RETURN(size_t n, conv_->Write(data.data(), data.size()));
      return static_cast<uint32_t>(n);
    }
    return Error(kErrPerm);
  }

  void Close(uint8_t mode) override { ReleaseRef(); }

 private:
  void ReleaseRef() {
    if (holds_ref_ && conv_->refs.fetch_sub(1) == 1) {
      // "A connection remains established while any of the files in the
      // connection directory are referenced..."  Last reference: shut down.
      conv_->CloseUser();
    }
    holds_ref_ = false;
  }

  NetProto* proto_;
  size_t p_;
  NetConv* conv_;  // nullptr on a clone file not yet opened
  std::string name_;
  bool holds_ref_ = false;
};

// GenEntry::make for the file `name` of protocol `p` (conversation `conv`).
decltype(GenEntry::make) ConvFile(NetProto* proto, size_t p, NetConv* conv, std::string name) {
  return [=](const std::shared_ptr<GenDirVnode>& in, Qid qid) {
    return std::make_shared<ConvFileVnode>(in->gen(), qid, proto, p, conv, name);
  };
}

// /net/<proto>/<n>: the conversation's files, named by the protocol.
DirGen ConvGen(NetProto* proto, size_t p, NetConv* conv) {
  return [=](size_t i) -> std::optional<GenEntry> {
    auto names = proto->ConvFileNames();
    if (i >= names.size()) {
      return std::nullopt;
    }
    size_t c = static_cast<size_t>(conv->index());
    return GenEntry{Entry(names[i], QidFile(p, c, i), 0666, conv->owner()),
                    ConvFile(proto, p, conv, names[i])};
  };
}

// /net/<proto>: clone, then every conversation slot ever created.
DirGen ProtoGen(NetProto* proto, size_t p) {
  return [=](size_t i) -> std::optional<GenEntry> {
    if (i == 0) {
      return GenEntry{Entry("clone", QidClone(p), 0666), ConvFile(proto, p, nullptr, "clone")};
    }
    NetConv* conv = proto->Conv(i - 1);
    if (conv == nullptr) {
      return std::nullopt;
    }
    return GenEntry{
        Entry(StrFormat("%zu", i - 1), QidConv(p, i - 1), kDmDir | 0555, conv->owner()),
        GenDirVnode::Subdir(ConvGen(proto, p, conv))};
  };
}

// /net: the observability files, then the protocol directories.
DirGen RootGen(const std::vector<NetProto*>* protos) {
  return [protos](size_t i) -> std::optional<GenEntry> {
    if (i < kObsFileCount) {
      bool writable = i == 3 || i == 4;  // ctl, chaos
      return GenEntry{Entry(kObsFiles[i], QidObsFile(i), writable ? 0666 : 0444),
                      [i](const std::shared_ptr<GenDirVnode>& in, Qid qid) {
                        return std::make_shared<ObsFileVnode>(in->gen(), qid, i);
                      }};
    }
    size_t p = i - kObsFileCount;
    if (p >= protos->size()) {
      return std::nullopt;
    }
    NetProto* proto = (*protos)[p];
    return GenEntry{Entry(proto->name(), QidProto(p), kDmDir | 0555),
                    GenDirVnode::Subdir(ProtoGen(proto, p))};
  };
}

}  // namespace

Result<std::shared_ptr<Vnode>> NetDirVfs::Attach(const std::string& uname,
                                                 const std::string& aname) {
  return GenDirVnode::Root(Entry("net", QidRoot(), kDmDir | 0555), RootGen(&protos_));
}

}  // namespace plan9
