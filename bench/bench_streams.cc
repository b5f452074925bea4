// §2.4's performance claim: "the time to process protocols and drive device
// interfaces continues to dwarf the time spent allocating, freeing, and
// moving blocks of data."
//
// Benchmarks: block allocation, queue put/get, the put-routine chain at
// several depths ("most data is output without context switching"), 32K
// write splitting, and pipe round trips through two full streams — to set
// against the protocol-path costs bench_il_vs_tcp measures.
#include <benchmark/benchmark.h>

#include "bench/bench_obs.h"

#include "src/stream/block.h"
#include "src/stream/queue.h"
#include "src/stream/stream.h"

namespace plan9 {
namespace {

void BM_BlockAllocFree(benchmark::State& state) {
  for (auto _ : state) {
    auto b = AllocDataBlock(Bytes(1024, 0x11), true);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_BlockAllocFree);

void BM_QueuePutGet(benchmark::State& state) {
  Queue q;
  Bytes payload(1024, 0x22);
  for (auto _ : state) {
    (void)q.PutNoBlock(AllocDataBlock(payload));
    auto b = q.Get();
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_QueuePutGet);

// A no-op pass-through module.
class NullModule : public StreamModule {
 public:
  std::string_view name() const override { return "null"; }
};

// Device that sinks everything and counts bytes.
class SinkDevice : public StreamModule {
 public:
  std::string_view name() const override { return "sink"; }
  void DownPut(BlockPtr b) override { bytes += b->size(); }
  size_t bytes = 0;
};

void BM_PutChain(benchmark::State& state) {
  // Depth = number of pushed modules the write traverses, all on the
  // caller's thread (no context switch).
  static bool registered = [] {
    ModuleRegistry::Instance().Register("null",
                                        [] { return std::make_unique<NullModule>(); });
    return true;
  }();
  (void)registered;
  auto depth = state.range(0);
  Stream s(std::make_unique<SinkDevice>());
  for (int i = 0; i < depth; i++) {
    (void)s.Push("null");
  }
  Bytes payload(1024, 0x33);
  for (auto _ : state) {
    (void)s.Write(payload.data(), payload.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_PutChain)->Arg(0)->Arg(1)->Arg(4)->Arg(8);

void BM_Write32KSplit(benchmark::State& state) {
  // Writes above kMaxBlock split into multiple blocks with one delimiter.
  Stream s(std::make_unique<SinkDevice>());
  Bytes payload(64 * 1024, 0x44);
  for (auto _ : state) {
    (void)s.Write(payload.data(), payload.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_Write32KSplit);

// Loopback device: upstream copy of everything written.
class LoopDevice : public StreamModule {
 public:
  std::string_view name() const override { return "loop"; }
  void DownPut(BlockPtr b) override { PutUp(std::move(b)); }
};

void BM_StreamEcho1K(benchmark::State& state) {
  // Write + read through a full stream (head queue, read lock, delimiters).
  Stream s(std::make_unique<LoopDevice>());
  Bytes payload(1024, 0x55);
  Bytes buf(2048);
  for (auto _ : state) {
    (void)s.Write(payload.data(), payload.size());
    (void)s.Read(buf.data(), buf.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_StreamEcho1K);

void BM_ControlBlockParse(benchmark::State& state) {
  // "The time to parse control blocks is not important, since control
  // operations are rare" — but measure it anyway.
  Stream s(std::make_unique<SinkDevice>());
  for (auto _ : state) {
    (void)s.WriteControl("connect 135.104.9.31!564");
  }
}
BENCHMARK(BM_ControlBlockParse);

}  // namespace
}  // namespace plan9

P9_BENCHMARK_MAIN("streams");
