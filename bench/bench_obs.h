// Shared main() for google-benchmark suites, adding two flags:
//
//   --quick        short run (min_time 0.05s) for CI smoke jobs
//   --json[=path]  after the run, write BENCH_<name>.json (or `path`)
//                  containing the google-benchmark JSON report plus a
//                  snapshot of the metrics registry, starting the
//                  BENCH_*.json trajectory the CI bench-smoke job uploads
//
// Use P9_BENCHMARK_MAIN("name") in place of BENCHMARK_MAIN().  The
// container's benchmark library predates the "0.2s" suffix syntax, so
// min_time is always passed as a bare double.
#ifndef BENCH_BENCH_OBS_H_
#define BENCH_BENCH_OBS_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace plan9 {
namespace benchutil {

// Derived block-audit figures (DESIGN.md section 13): payload copies and
// heap allocations per delimited message.
// Written as their own JSON section so a trend job can gate on
// copies_per_message / allocs_per_message without walking the registry.
// null when no message passed a stream head: a suite whose traffic never
// reaches one (bench_ninep's pipe transports) has nothing to audit.
inline std::string RenderBlockAudit() {
  auto& r = obs::MetricsRegistry::Default();
  auto v = [&r](const char* n) {
    return static_cast<double>(r.CounterNamed(n).value());
  };
  double msgs = v("stream.block.msgs");
  double hot_msgs = v("stream.hot.msgs");
  if (msgs == 0) {
    return "null";
  }
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(6);
  out << "{\"messages\": " << static_cast<uint64_t>(msgs)
      << ", \"copies_per_message\": "
      << v("stream.block.copies") / msgs
      << ", \"allocs_per_message\": "
      << (hot_msgs > 0 ? v("stream.hot.allocs") / hot_msgs : 0.0)
      << ", \"alloc_bytes_per_message\": "
      << (hot_msgs > 0 ? v("stream.hot.alloc-bytes") / hot_msgs : 0.0) << "}";
  return out.str();
}

inline int RunWithObs(int argc, char** argv, const char* name) {
  bool quick = false;
  bool json = false;
  std::string json_path = std::string("BENCH_") + name + ".json";
  // Rebuild argv without our flags; google benchmark rejects unknown ones.
  std::vector<std::string> args;
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else {
      args.push_back(std::move(arg));
    }
  }
  if (quick) {
    args.emplace_back("--benchmark_min_time=0.05");
  }
  std::string report_path = json_path + ".gbench";
  if (json) {
    args.emplace_back("--benchmark_out=" + report_path);
    args.emplace_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargs;
  for (auto& a : args) {
    cargs.push_back(a.data());
  }
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  benchmark::RunSpecifiedBenchmarks();
  if (json) {
    std::ifstream in(report_path);
    std::stringstream report;
    report << in.rdbuf();
    std::ofstream out(json_path);
    out << "{\"suite\": \"" << name << "\",\n\"google_benchmark\": "
        << (report.str().empty() ? "null" : report.str())
        << ",\n\"block_audit\": " << RenderBlockAudit()
        << ",\n\"registry\": " << obs::MetricsRegistry::Default().RenderJson()
        << "}\n";
    std::remove(report_path.c_str());
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace benchutil
}  // namespace plan9

#define P9_BENCHMARK_MAIN(name)                              \
  int main(int argc, char** argv) {                          \
    return ::plan9::benchutil::RunWithObs(argc, argv, name); \
  }

#endif  // BENCH_BENCH_OBS_H_
