#include "src/ns/proc.h"

#include <algorithm>
#include <cstring>

#include "src/base/strings.h"
#include "src/ninep/transport.h"
#include "src/stream/stream.h"

namespace plan9 {
namespace {

// Pipe plumbing: each end is a Stream whose device module hands blocks to
// the peer stream's upstream side — the two-stream structure of §2.4.
struct PipePair {
  std::unique_ptr<Stream> ends[2];
};

class PipeDeviceModule : public StreamModule {
 public:
  std::string_view name() const override { return "pipedev"; }
  void DownPut(BlockPtr b) override P9_CONSUMES(b) P9_HOT_PATH {
    if (peer_ != nullptr && b->type == BlockType::kData) {
      // Pipes respect the head-queue flow-control limit implicitly via the
      // writer's stream; deliver directly.
      peer_->DeliverUp(std::move(b));
    } else {
      DropBlock(std::move(b));
    }
  }
  Stream* peer_ = nullptr;
};

class PipeEndVnode : public Vnode {
 public:
  PipeEndVnode(std::shared_ptr<PipePair> pair, int side, uint32_t qid_path)
      : pair_(std::move(pair)), side_(side), qid_{qid_path, 0} {}

  ~PipeEndVnode() override { HangupBoth(); }

  Qid qid() override { return qid_; }

  Result<Dir> Stat() override {
    Dir d;
    d.name = side_ == 0 ? "data" : "data1";
    d.qid = qid_;
    d.mode = 0600;
    d.type = '|';
    return d;
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    Bytes buf(count);
    auto n = pair_->ends[side_]->Read(buf.data(), buf.size());
    if (!n.ok()) {
      return n.error();
    }
    buf.resize(*n);
    return buf;
  }

  Result<uint32_t> Write(uint64_t offset, const Bytes& data) override {
    auto n = pair_->ends[side_]->Write(data.data(), data.size());
    if (!n.ok()) {
      return n.error();
    }
    return static_cast<uint32_t>(*n);
  }

  void Close(uint8_t mode) override { HangupBoth(); }

 private:
  void HangupBoth() {
    // "The last close destroys it": either end closing hangs up both
    // directions; the peer drains queued data then sees EOF.
    pair_->ends[0]->Hangup();
    pair_->ends[1]->Hangup();
  }

  std::shared_ptr<PipePair> pair_;
  int side_;
  Qid qid_;
};

}  // namespace

Proc::Proc(std::shared_ptr<Namespace> ns, std::string user)
    : ns_(std::move(ns)), user_(std::move(user)) {}

Result<Proc::FdEntry*> Proc::GetLocked(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() || fds_[fd] == nullptr) {
    return Error(kErrBadFd);
  }
  return fds_[fd].get();
}

int Proc::InstallLocked(FdEntry entry) {
  for (size_t i = 0; i < fds_.size(); i++) {
    if (fds_[i] == nullptr) {
      fds_[i] = std::make_unique<FdEntry>(std::move(entry));
      return static_cast<int>(i);
    }
  }
  fds_.push_back(std::make_unique<FdEntry>(std::move(entry)));
  return static_cast<int>(fds_.size() - 1);
}

Result<int> Proc::Open(const std::string& path, uint8_t mode) {
  auto chan = ns_->Resolve(path);
  if (!chan.ok()) {
    return chan.error();
  }
  ChanPtr c = *chan;
  FdEntry entry;
  if (c->IsDir() && !c->union_stack.empty()) {
    // Union directory: materialize the merged listing now.
    auto entries = ReadDirChan(c);
    if (!entries.ok()) {
      return entries.error();
    }
    auto image = std::make_shared<Bytes>();
    for (auto& d : *entries) {
      d.Pack(image.get());
    }
    entry.dir_image = image;
  } else {
    ChanPtr opened = c->CloneUnopened();
    Status s = opened->node->Open(mode, user_);
    if (!s.ok()) {
      return s.error();
    }
    opened->open = true;
    opened->mode = mode;
    opened->qid = opened->node->qid();  // listen-style opens morph identity
    c = opened;
  }
  entry.chan = c;
  QLockGuard guard(lock_);
  return InstallLocked(std::move(entry));
}

Result<int> Proc::Create(const std::string& path, uint32_t perm, uint8_t mode) {
  auto chan = ns_->Create(path, perm, mode, user_);
  if (!chan.ok()) {
    return chan.error();
  }
  FdEntry entry;
  entry.chan = *chan;
  QLockGuard guard(lock_);
  return InstallLocked(std::move(entry));
}

Status Proc::Close(int fd) {
  std::unique_ptr<FdEntry> entry;
  {
    QLockGuard guard(lock_);
    auto e = GetLocked(fd);
    if (!e.ok()) {
      return e.error();
    }
    entry = std::move(fds_[fd]);
  }
  if (entry->chan->open && entry->chan.use_count() == 1) {
    entry->chan->node->Close(entry->chan->mode);
  }
  return Status::Ok();
}

Result<int> Proc::Dup(int fd) {
  QLockGuard guard(lock_);
  auto e = GetLocked(fd);
  if (!e.ok()) {
    return e.error();
  }
  FdEntry copy;
  copy.chan = (*e)->chan;  // shares open chan and its node
  copy.offset = (*e)->offset;
  copy.dir_image = (*e)->dir_image;
  return InstallLocked(std::move(copy));
}

Result<size_t> Proc::Read(int fd, void* buf, size_t n) {
  ChanPtr chan;
  uint64_t offset;
  std::shared_ptr<Bytes> image;
  {
    QLockGuard guard(lock_);
    auto e = GetLocked(fd);
    if (!e.ok()) {
      return e.error();
    }
    chan = (*e)->chan;
    offset = (*e)->offset;
    image = (*e)->dir_image;
  }
  size_t got;
  if (image != nullptr) {
    if (offset >= image->size()) {
      return size_t{0};
    }
    got = std::min(n, image->size() - offset);
    std::memcpy(buf, image->data() + offset, got);
  } else {
    auto data = chan->node->Read(offset, static_cast<uint32_t>(std::min<size_t>(n, 1 << 20)));
    if (!data.ok()) {
      return data.error();
    }
    got = data->size();
    if (got != 0) {  // empty Bytes may have a null data(); memcpy forbids it
      std::memcpy(buf, data->data(), got);
    }
  }
  {
    QLockGuard guard(lock_);
    auto e = GetLocked(fd);
    if (e.ok()) {
      (*e)->offset = offset + got;
    }
  }
  return got;
}

Result<size_t> Proc::Write(int fd, const void* buf, size_t n) {
  ChanPtr chan;
  uint64_t offset;
  {
    QLockGuard guard(lock_);
    auto e = GetLocked(fd);
    if (!e.ok()) {
      return e.error();
    }
    chan = (*e)->chan;
    offset = (*e)->offset;
  }
  auto written = chan->node->Write(
      offset, Bytes(static_cast<const uint8_t*>(buf), static_cast<const uint8_t*>(buf) + n));
  if (!written.ok()) {
    return written.error();
  }
  {
    QLockGuard guard(lock_);
    auto e = GetLocked(fd);
    if (e.ok()) {
      (*e)->offset = offset + *written;
    }
  }
  return static_cast<size_t>(*written);
}

Result<uint64_t> Proc::Seek(int fd, int64_t offset, int whence) {
  QLockGuard guard(lock_);
  auto e = GetLocked(fd);
  if (!e.ok()) {
    return e.error();
  }
  int64_t base = 0;
  switch (whence) {
    case kSeekSet:
      base = 0;
      break;
    case kSeekCur:
      base = static_cast<int64_t>((*e)->offset);
      break;
    case kSeekEnd: {
      auto d = (*e)->chan->node->Stat();
      if (!d.ok()) {
        return d.error();
      }
      base = static_cast<int64_t>(d->length);
      break;
    }
    default:
      return Error(kErrBadArg);
  }
  int64_t target = base + offset;
  if (target < 0) {
    return Error(kErrBadArg);
  }
  (*e)->offset = static_cast<uint64_t>(target);
  return (*e)->offset;
}

Result<std::string> Proc::ReadString(int fd, size_t max) {
  std::string buf(max, 0);
  auto n = Read(fd, buf.data(), buf.size());
  if (!n.ok()) {
    return n.error();
  }
  buf.resize(*n);
  return buf;
}

Status Proc::WriteString(int fd, std::string_view s) {
  auto n = Write(fd, s.data(), s.size());
  if (!n.ok()) {
    return n.error();
  }
  if (*n != s.size()) {
    return Error("short write");
  }
  return Status::Ok();
}

Result<std::string> Proc::ReadFile(const std::string& path) {
  P9_ASSIGN_OR_RETURN(int fd, Open(path, kORead));
  std::string out;
  char buf[8192];
  for (;;) {
    auto n = Read(fd, buf, sizeof buf);
    if (!n.ok()) {
      (void)Close(fd);
      return n.error();
    }
    if (*n == 0) {
      break;
    }
    out.append(buf, *n);
  }
  (void)Close(fd);
  return out;
}

Status Proc::WriteFile(const std::string& path, std::string_view contents, bool create) {
  auto fd = Open(path, kOWrite | kOTrunc);
  if (!fd.ok() && create) {
    fd = Create(path, 0664, kOWrite);
  }
  if (!fd.ok()) {
    return fd.error();
  }
  Status s = WriteString(*fd, contents);
  (void)Close(*fd);
  return s;
}

Result<Dir> Proc::Fstat(int fd) {
  ChanPtr chan;
  {
    QLockGuard guard(lock_);
    auto e = GetLocked(fd);
    if (!e.ok()) {
      return e.error();
    }
    chan = (*e)->chan;
  }
  return chan->node->Stat();
}

Result<Dir> Proc::Stat(const std::string& path) {
  auto chan = ns_->Resolve(path);
  if (!chan.ok()) {
    return chan.error();
  }
  return (*chan)->node->Stat();
}

Status Proc::Wstat(const std::string& path, const Dir& d) {
  auto chan = ns_->Resolve(path);
  if (!chan.ok()) {
    return chan.error();
  }
  return (*chan)->node->Wstat(d);
}

Status Proc::Remove(const std::string& path) {
  auto chan = ns_->Resolve(path);
  if (!chan.ok()) {
    return chan.error();
  }
  return (*chan)->node->Remove();
}

Result<std::vector<Dir>> Proc::ReadDir(const std::string& path) {
  auto chan = ns_->Resolve(path);
  if (!chan.ok()) {
    return chan.error();
  }
  if (!(*chan)->IsDir()) {
    return Error(kErrNotDir);
  }
  return ReadDirChan(*chan);
}

Status Proc::Bind(const std::string& newpath, const std::string& oldpath, int flags) {
  return ns_->Bind(newpath, oldpath, flags);
}

Status Proc::MountVfs(Vfs* fs, const std::string& oldpath, int flags,
                      const std::string& aname) {
  return ns_->MountVfs(fs, oldpath, flags, aname);
}

Status Proc::MountClient(std::shared_ptr<NinepClient> client, const std::string& oldpath,
                         int flags, const std::string& aname) {
  return ns_->MountClient(std::move(client), oldpath, flags, aname, user_);
}

Status Proc::MountFd(int fd, const std::string& oldpath, int flags,
                     const std::string& aname, bool delimited) {
  auto transport = TransportForFd(fd, delimited);
  if (transport == nullptr) {
    return Error(kErrBadFd);
  }
  auto client = std::make_shared<NinepClient>(std::move(transport));
  return ns_->MountClient(std::move(client), oldpath, flags, aname, user_);
}

Status Proc::Unmount(const std::string& oldpath) { return ns_->Unmount(oldpath); }

void Proc::DropSession(const std::shared_ptr<NinepClient>& client) {
  ns_->DropSession(client);
}

Result<std::pair<int, int>> Proc::Pipe() {
  auto pair = std::make_shared<PipePair>();
  auto mod0 = std::make_unique<PipeDeviceModule>();
  auto mod1 = std::make_unique<PipeDeviceModule>();
  PipeDeviceModule* m0 = mod0.get();
  PipeDeviceModule* m1 = mod1.get();
  pair->ends[0] = std::make_unique<Stream>(std::move(mod0));
  pair->ends[1] = std::make_unique<Stream>(std::move(mod1));
  m0->peer_ = pair->ends[1].get();
  m1->peer_ = pair->ends[0].get();

  static std::atomic<uint32_t> pipe_qid{0x100000};
  uint32_t q = pipe_qid.fetch_add(2);
  auto v0 = std::make_shared<PipeEndVnode>(pair, 0, q);
  auto v1 = std::make_shared<PipeEndVnode>(pair, 1, q + 1);

  constexpr uint64_t kPipeDevId = 0x7c;  // '|'
  ChanPtr c0 = Chan::Make(v0, kPipeDevId, "#|/data");
  c0->open = true;
  c0->mode = kORdWr;
  ChanPtr c1 = Chan::Make(v1, kPipeDevId, "#|/data1");
  c1->open = true;
  c1->mode = kORdWr;
  QLockGuard guard(lock_);
  FdEntry e0;
  e0.chan = c0;
  FdEntry e1;
  e1.chan = c1;
  int fd0 = InstallLocked(std::move(e0));
  int fd1 = InstallLocked(std::move(e1));
  return std::make_pair(fd0, fd1);
}

int Proc::PutChan(ChanPtr chan) {
  FdEntry entry;
  entry.chan = std::move(chan);
  QLockGuard guard(lock_);
  return InstallLocked(std::move(entry));
}

ChanPtr Proc::GetChan(int fd) {
  QLockGuard guard(lock_);
  auto e = GetLocked(fd);
  return e.ok() ? (*e)->chan : nullptr;
}

std::unique_ptr<MsgTransport> Proc::TransportForFd(int fd, bool delimited) {
  ChanPtr chan = GetChan(fd);
  if (chan == nullptr) {
    return nullptr;
  }
  auto node = chan->node;
  if (delimited) {
    // Each Read returns one whole message (the stream head stops at the
    // delimiter); each Write is one delimited message.
    class DelimTransport : public MsgTransport {
     public:
      explicit DelimTransport(std::shared_ptr<Vnode> node) : node_(std::move(node)) {}
      Result<Bytes> ReadMsg() override { return node_->Read(0, kMaxMsg); }
      Status WriteMsg(Bytes msg) override {
        auto n = node_->Write(0, msg);
        if (!n.ok()) {
          return n.error();
        }
        return Status::Ok();
      }
      void Close() override { node_->Close(kORdWr); }

     private:
      std::shared_ptr<Vnode> node_;
    };
    return std::make_unique<DelimTransport>(node);
  }
  return std::make_unique<FramedMsgTransport>(
      [node](uint8_t* buf, size_t n) -> Result<size_t> {
        auto data = node->Read(0, static_cast<uint32_t>(n));
        if (!data.ok()) {
          return data.error();
        }
        std::memcpy(buf, data->data(), data->size());
        return data->size();
      },
      [node](const uint8_t* data, size_t n) -> Status {
        auto w = node->Write(0, Bytes(data, data + n));
        if (!w.ok()) {
          return w.error();
        }
        return Status::Ok();
      },
      [node] { node->Close(kORdWr); });
}

}  // namespace plan9
