// Counting replacement of the global operator new/delete.
//
// Every allocation bumps a count and the live byte total (by
// malloc_usable_size, so frees need no size); the peak of the live total
// is kept and can be re-armed. All counters are lock-free atomics, so they
// may be read from a signal handler (alloc_signal.cpp).

#include "alloc_hook.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void Track(void* p) {
  const auto size = static_cast<int64_t>(malloc_usable_size(p));
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const int64_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* Allocate(size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  Track(p);
  return p;
}

void* AllocateAligned(size_t n, std::align_val_t align) {
  const size_t a = static_cast<size_t>(align);
  void* p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  Track(p);
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace nedbench {

AllocCounters ReadAllocCounters() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_live.load(std::memory_order_relaxed),
          g_peak.load(std::memory_order_relaxed)};
}

void RearmAllocPeak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace nedbench

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(size_t n, std::align_val_t a) { return AllocateAligned(n, a); }
void* operator new[](size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
