#include "src/csdns/queryfs.h"

#include "src/base/thread_annotations.h"
#include "src/task/qlock.h"

namespace plan9 {
namespace {

using Spec = QueryVfs::Spec;

// One open of the file: its own query results.
class QueryFileVnode : public GenVnode {
 public:
  QueryFileVnode(DirGen in, Qid qid, std::shared_ptr<const Spec> spec)
      : GenVnode(std::move(in), qid), spec_(std::move(spec)) {}

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

}  // namespace

QueryVfs::QueryVfs(std::string name, uint32_t dir_path, uint32_t file_path, Query query)
    : spec_(std::make_shared<const Spec>(
          Spec{std::move(name), dir_path, file_path, std::move(query)})) {}

Result<std::shared_ptr<Vnode>> QueryVfs::Attach(const std::string& uname,
                                                const std::string& aname) {
  Dir dir;
  dir.name = spec_->name;
  dir.qid = Qid{spec_->dir_path | kQidDirBit, 0};
  dir.mode = kDmDir | 0555;
  return GenDirVnode::Root(std::move(dir), [spec = spec_](size_t i) -> std::optional<GenEntry> {
    if (i > 0) {
      return std::nullopt;
    }
    Dir file;
    file.name = spec->name;
    file.qid = Qid{spec->file_path, 0};
    file.mode = 0666;
    file.type = 'x';
    return GenEntry{std::move(file), [spec](const std::shared_ptr<GenDirVnode>& in, Qid qid) {
                      return std::make_shared<QueryFileVnode>(in->gen(), qid, spec);
                    }};
  });
}

}  // namespace plan9
