// Replacement global allocation functions with live/peak byte counters.
// Sizes are malloc_usable_size() of the block, read at allocation and at
// release, so the count is exact without a per-block header (and the
// aligned forms need no special casing).

#include "heap_counter.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<size_t> g_live{0};
std::atomic<size_t> g_peak{0};

void* Track(void* p) {
  if (p == nullptr) return nullptr;
  const size_t n = malloc_usable_size(p);
  const size_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  size_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* Allocate(size_t n) {
  void* p = Track(std::malloc(n == 0 ? 1 : n));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(size_t n, std::align_val_t align) {
  const size_t a = static_cast<size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = Track(std::aligned_alloc(a, rounded));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

size_t PeakHeapBytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(size_t n) { return perfbench::Allocate(n); }
void* operator new[](size_t n) { return perfbench::Allocate(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Track(std::malloc(n == 0 ? 1 : n));
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Track(std::malloc(n == 0 ? 1 : n));
}
void* operator new(size_t n, std::align_val_t a) {
  return perfbench::AllocateAligned(n, a);
}
void* operator new[](size_t n, std::align_val_t a) {
  return perfbench::AllocateAligned(n, a);
}

void operator delete(void* p) noexcept { perfbench::Release(p); }
void operator delete[](void* p) noexcept { perfbench::Release(p); }
void operator delete(void* p, size_t) noexcept { perfbench::Release(p); }
void operator delete[](void* p, size_t) noexcept { perfbench::Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { perfbench::Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { perfbench::Release(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { perfbench::Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::Release(p);
}
