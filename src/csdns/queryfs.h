// The query files of §4.2, /net/cs and /net/dns: "A client writes a
// symbolic name to /net/cs then reads one line for each matching
// destination"; DNS works the same way.  One Vfs serves both: a write runs
// the query, each read returns one result line, a read at offset 0 restarts
// the lines, and a failed query's error is returned by every read until the
// next write.  The tree is a directory holding the one file.
#ifndef SRC_CSDNS_QUERYFS_H_
#define SRC_CSDNS_QUERYFS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/ninep/server.h"

namespace plan9 {

class QueryVfs : public Vfs {
 public:
  // May block (CS asks DNS, DNS asks an upstream server); called with no
  // lock held.
  using Query = std::function<Result<std::vector<std::string>>(const std::string& query)>;

  // `name` names both the directory and its file; `dir_path` and
  // `file_path` are their qid paths (the directory bit is added here).
  QueryVfs(std::string name, uint32_t dir_path, uint32_t file_path, Query query);

  Result<std::shared_ptr<Vnode>> Attach(const std::string& uname,
                                        const std::string& aname) override;

  struct Spec {
    std::string name;
    uint32_t dir_path;
    uint32_t file_path;
    Query query;
  };

 private:
  std::shared_ptr<const Spec> spec_;
};

}  // namespace plan9

#endif  // SRC_CSDNS_QUERYFS_H_
