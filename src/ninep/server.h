// 9P server framework.
//
// External file servers "use an RPC form" of the protocol (§2.1).  A
// NinepServer speaks 9P over one MsgTransport on behalf of a Vfs.  Requests
// are dispatched to a worker pool — "Exportfs must be multithreaded since
// the system calls open, read and write may block" (§6.1) — with replies
// serialized onto the transport.
#ifndef SRC_NINEP_SERVER_H_
#define SRC_NINEP_SERVER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/thread_annotations.h"
#include "src/ninep/fcall.h"
#include "src/ninep/transport.h"
#include "src/task/kproc.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {

// A server-side file object.  Implementations: RamFs nodes, synthetic trees
// (SrvFile), exportfs relays.
class Vnode {
 public:
  virtual ~Vnode() = default;

  virtual Qid qid() = 0;
  virtual Result<Dir> Stat() = 0;

  // Walk one component ("." and ".." included).  Only meaningful on dirs.
  virtual Result<std::shared_ptr<Vnode>> Walk(const std::string& name) {
    return Error(kErrNotDir);
  }

  // Prepare for I/O.  `user` is the attach uname.  MAY_BLOCK: device vnodes
  // (devproto) block in Open on Listen/WaitReady — the reason the server
  // dispatches to a worker pool.
  virtual Status Open(uint8_t mode, const std::string& user) MAY_BLOCK {
    return Status::Ok();
  }

  virtual Result<std::shared_ptr<Vnode>> Create(const std::string& name, uint32_t perm,
                                                uint8_t mode, const std::string& user) {
    return Error(kErrPerm);
  }

  // Directories return packed Dir records (offset/count in bytes, kDirLen
  // aligned); PackDirEntries below helps.  MAY_BLOCK: data-file vnodes wait
  // for stream input / flow control.
  virtual Result<Bytes> Read(uint64_t offset, uint32_t count) MAY_BLOCK = 0;

  virtual Result<uint32_t> Write(uint64_t offset, const Bytes& data) MAY_BLOCK {
    return Error(kErrPerm);
  }

  virtual Status Remove() { return Error(kErrPerm); }
  virtual Status Wstat(const Dir& d) { return Error(kErrPerm); }

  // Last reference via an *opened* fid went away.
  virtual void Close(uint8_t mode) {}
};

class Vfs {
 public:
  virtual ~Vfs() = default;
  virtual Result<std::shared_ptr<Vnode>> Attach(const std::string& uname,
                                                const std::string& aname) = 0;
};

// Helper: serve a directory read from a materialized entry list.
Result<Bytes> PackDirEntries(const std::vector<Dir>& entries, uint64_t offset,
                             uint32_t count);

// Synthetic file trees, generated as Plan 9's devgen generates them.  A
// directory is one function: gen(i) describes its i-th entry, the Dir and
// how to make the entry's vnode, and returns nullopt past the last.  The
// directory's Walk and Read and every entry's Stat all call it, so a
// listing and a Stat cannot disagree.
class GenDirVnode;
struct GenEntry {
  Dir dir;
  // Makes the vnode walked to; `in` is the directory holding it.
  std::function<std::shared_ptr<Vnode>(const std::shared_ptr<GenDirVnode>& in, Qid qid)>
      make;
};
using DirGen = std::function<std::optional<GenEntry>(size_t i)>;

// An entry of a generated directory.  Its Stat is the entry whose qid it
// carries in the gen of the directory holding it (devstat).  Files derive
// from it and add Open/Read/Write.
class GenVnode : public Vnode {
 public:
  GenVnode(DirGen in, Qid qid) : in_(std::move(in)), qid_(qid) {}
  Qid qid() override { return qid_; }
  Result<Dir> Stat() override;

 protected:
  // The vnode now stands for another entry (devproto: an opened clone or
  // listen file becomes a conversation's ctl).
  void Become(DirGen in, Qid qid) {
    in_ = std::move(in);
    qid_ = qid;
  }

 private:
  DirGen in_;
  Qid qid_;
};

// The generated directory: Walk and Read over `gen`; ".." is `parent`, or
// the directory itself at a root.
class GenDirVnode : public GenVnode, public std::enable_shared_from_this<GenDirVnode> {
 public:
  GenDirVnode(DirGen in, Qid qid, DirGen gen, std::shared_ptr<Vnode> parent)
      : GenVnode(std::move(in), qid), gen_(std::move(gen)), parent_(std::move(parent)) {}

  // The root of a tree: `self` is its own Dir.
  static std::shared_ptr<Vnode> Root(Dir self, DirGen gen);
  // GenEntry::make for a subdirectory generated by `gen`.
  static decltype(GenEntry::make) Subdir(DirGen gen);

  const DirGen& gen() const { return gen_; }
  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override;
  Result<Bytes> Read(uint64_t offset, uint32_t count) override;

 private:
  DirGen gen_;
  std::shared_ptr<Vnode> parent_;
};

class NinepServer {
 public:
  // Serves until EOF on the transport; call Shutdown() or destroy to stop.
  // `vfs` must outlive the server.  `host` labels this server's trace spans
  // with the node it runs on ("" in unit tests).
  NinepServer(Vfs* vfs, std::unique_ptr<MsgTransport> transport,
              std::string name = "9p.server", std::string host = "");
  ~NinepServer();

  void Shutdown();
  // Block until the serve loop exits (EOF or Shutdown).
  void Wait() MAY_BLOCK;

 private:
  struct FidState {
    std::shared_ptr<Vnode> node;
    std::string user;
    bool open = false;
    uint8_t open_mode = 0;
  };

  void ReaderLoop();
  void Worker();
  void Dispatch(Fcall req) MAY_BLOCK;
  // Blocks: holds write_lock_ (sleepable) across a flow-controlled WriteMsg.
  void Reply(const Fcall& reply) MAY_BLOCK;
  void ReplyError(uint16_t tag, const std::string& ename) MAY_BLOCK;
  Result<FidState*> GetFidLocked(uint32_t fid) REQUIRES(lock_);

  Vfs* vfs_;
  std::unique_ptr<MsgTransport> transport_;
  std::string host_;
  // Serializes replies onto the transport; never held with lock_ (Reply
  // drops lock_ before packing and writing).  Sleepable: held across
  // WriteMsg, which can block on transport flow control — by design, so
  // concurrent repliers queue behind the stalled frame write.
  QLock write_lock_{"9p.server.write", kSleepableClass};

  QLock lock_{"9p.server"};  // fid table + work queue
  std::map<uint32_t, FidState> fids_ GUARDED_BY(lock_);
  std::deque<Fcall> work_ GUARDED_BY(lock_);
  Rendez work_ready_;
  // Tags whose replies must be suppressed (Tflush).
  std::set<uint16_t> flushed_ GUARDED_BY(lock_);
  std::set<uint16_t> outstanding_ GUARDED_BY(lock_);
  bool stopping_ GUARDED_BY(lock_) = false;

  std::vector<Kproc> workers_;
  Kproc reader_;
};

}  // namespace plan9

#endif  // SRC_NINEP_SERVER_H_
