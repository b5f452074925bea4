// Heap-allocation counter for the traced benchmark binary only: replaces
// the global operator new so heap.allocs_per_op can be read as a delta.
// The plain binary links the allocator untouched.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace p9bench {
namespace {
std::atomic<uint64_t> g_allocs{0};

void* Count(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

uint64_t HeapAllocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace p9bench

void* operator new(std::size_t size) { return p9bench::Count(size); }
void* operator new[](std::size_t size) { return p9bench::Count(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
