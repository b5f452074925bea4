#include "src/csdns/queryfs.h"

#include "src/base/thread_annotations.h"
#include "src/task/qlock.h"

namespace plan9 {
namespace {

using Spec = QueryVfs::Spec;

// One open of the file: its own query results.
class QueryFileVnode : public Vnode {
 public:
  explicit QueryFileVnode(std::shared_ptr<const Spec> spec) : spec_(std::move(spec)) {}

  Qid qid() override { return Qid{spec_->file_path, 0}; }

  Result<Dir> Stat() override {
    Dir d;
    d.name = spec_->name;
    d.qid = qid();
    d.mode = 0666;
    d.type = 'x';
    return d;
  }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    return Error(kErrNotDir);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    QLockGuard guard(lock_);
    if (offset == 0) {
      next_ = 0;
    }
    if (!error_.empty()) {
      return Error(error_);
    }
    if (next_ >= lines_.size()) {
      return Bytes{};
    }
    return ToBytes(lines_[next_++]);
  }

  Result<uint32_t> Write(uint64_t offset, const Bytes& data) override {
    auto result = spec_->query(ToString(data));
    QLockGuard guard(lock_);
    next_ = 0;
    lines_.clear();
    error_.clear();
    if (!result.ok()) {
      error_ = result.error().message();
      return Error(error_);
    }
    lines_ = result.take();
    return static_cast<uint32_t>(data.size());
  }

 private:
  std::shared_ptr<const Spec> spec_;
  QLock lock_{"query.file"};
  std::vector<std::string> lines_ GUARDED_BY(lock_);
  size_t next_ GUARDED_BY(lock_) = 0;
  std::string error_ GUARDED_BY(lock_);
};

class QueryDirVnode : public Vnode, public std::enable_shared_from_this<QueryDirVnode> {
 public:
  explicit QueryDirVnode(std::shared_ptr<const Spec> spec) : spec_(std::move(spec)) {}

  Qid qid() override { return Qid{spec_->dir_path | kQidDirBit, 0}; }

  Result<Dir> Stat() override {
    Dir d;
    d.name = spec_->name;
    d.qid = qid();
    d.mode = kDmDir | 0555;
    return d;
  }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    if (name == "." || name == "..") {
      return std::shared_ptr<Vnode>(shared_from_this());
    }
    if (name == spec_->name) {
      return std::shared_ptr<Vnode>(std::make_shared<QueryFileVnode>(spec_));
    }
    return Error(kErrNotExist);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    std::vector<Dir> entries(1);
    entries[0].name = spec_->name;
    entries[0].qid = Qid{spec_->file_path, 0};
    entries[0].mode = 0666;
    return PackDirEntries(entries, offset, count);
  }

 private:
  std::shared_ptr<const Spec> spec_;
};

}  // namespace

QueryVfs::QueryVfs(std::string name, uint32_t dir_path, uint32_t file_path, Query query)
    : spec_(std::make_shared<const Spec>(
          Spec{std::move(name), dir_path, file_path, std::move(query)})) {}

Result<std::shared_ptr<Vnode>> QueryVfs::Attach(const std::string& uname,
                                                const std::string& aname) {
  return std::shared_ptr<Vnode>(std::make_shared<QueryDirVnode>(spec_));
}

}  // namespace plan9
