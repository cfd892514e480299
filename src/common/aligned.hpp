// Cache-line / vector-register aligned storage for hot kernel buffers.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

namespace dp {

/// Alignment used by all kernel buffers: one 512-bit vector register, which
/// is also a typical cache-line size.
inline constexpr std::size_t kVectorAlign = 64;

/// Minimal aligned allocator so std::vector storage is usable with aligned
/// loads and `omp simd aligned` clauses.
template <class T, std::size_t Align = kVectorAlign>
struct AlignedAllocator {
  using value_type = T;

  // The non-type Align parameter defeats the default rebind deduction.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) throw std::bad_alloc();
    void* p = std::aligned_alloc(Align, round_up(n * sizeof(T)));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }

 private:
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + Align - 1) / Align * Align;
  }
};

template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Sizes a per-step buffer whose consumer rewrites every element before it
/// reads one. Within capacity this is a plain resize. Past it, the old
/// buffer is freed BEFORE a 1.5x larger one is allocated: the stale
/// contents are never copied, and the two buffers never coexist, so growth
/// costs no more resident memory than the new buffer itself.
template <class T, class A>
void resize_discard(std::vector<T, A>& v, std::size_t n) {
  if (n > v.capacity()) {
    const std::size_t grown = v.capacity() + v.capacity() / 2;
    std::vector<T, A>().swap(v);
    v.reserve(n > grown ? n : grown);
  }
  v.resize(n);
}

}  // namespace dp
