// Counts heap allocations by replacing the global operator new and delete.
// A replacement must be defined once per program, so include this header
// from one .cc file only; every tests/*.cc file is its own executable, so
// no other test runs under the counter.
#ifndef BATON_TESTS_ALLOC_COUNTER_H_
#define BATON_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_counter {

inline std::atomic<uint64_t> g_allocations{0};

/// Heap allocations made so far by this program.
inline uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

inline void* CountedAlloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace alloc_counter

void* operator new(std::size_t n) { return alloc_counter::CountedAlloc(n, 0); }
void* operator new[](std::size_t n) {
  return alloc_counter::CountedAlloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return alloc_counter::CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return alloc_counter::CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // BATON_TESTS_ALLOC_COUNTER_H_
