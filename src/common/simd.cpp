#include "common/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/soa.hpp"

namespace dp::simd {

namespace {

// Configure-time cap: 0 scalar, 1 avx2, 2 avx512 (CMake -DDP_SIMD_LEVEL).
#ifndef DP_SIMD_LEVEL_CAP
#define DP_SIMD_LEVEL_CAP 2
#endif

int hardware_level() {
#if DP_SIMD_X86
  // FMA is part of the numerical contract (std::fma tails must be cheap),
  // so AVX2 without FMA dispatches scalar; so does AVX2 without F16C, which
  // the half-precision table walk widens with. The AVX-512 kernels use DQ
  // for the double-precision bitwise ops.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c")) {
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
      return static_cast<int>(Level::AVX512);
    return static_cast<int>(Level::AVX2);
  }
#endif
  return static_cast<int>(Level::Scalar);
}

int clamp_to_supported(int lvl) {
  const int cap = static_cast<int>(max_supported());
  if (lvl > cap) return cap;
  if (lvl < 0) return 0;
  return lvl;
}

int resolve_default() {
  int lvl = static_cast<int>(max_supported());
  if (const char* env = std::getenv("DP_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) {
      lvl = static_cast<int>(Level::Scalar);
    } else if (std::strcmp(env, "avx2") == 0) {
      lvl = clamp_to_supported(static_cast<int>(Level::AVX2));
    } else if (std::strcmp(env, "avx512") == 0) {
      lvl = clamp_to_supported(static_cast<int>(Level::AVX512));
    } else if (env[0] != '\0') {
      std::fprintf(stderr, "dp: ignoring unknown DP_SIMD=%s (want scalar|avx2|avx512)\n",
                   env);
    }
  }
  return lvl;
}

// -1 = unresolved. Relaxed atomic: the first-use race resolves to the same
// value on every thread; force() is a single-threaded test/bench hook.
std::atomic<int> g_active{-1};

/// The value of `lvl` among one value per level.
template <class T>
T per_level(Level lvl, T scalar, T avx2, T avx512) {
  return lvl == Level::AVX512 ? avx512 : lvl == Level::AVX2 ? avx2 : scalar;
}

}  // namespace

Level max_supported() {
  static const int lvl = [] {
    const int hw = hardware_level();
    return hw < DP_SIMD_LEVEL_CAP ? hw : DP_SIMD_LEVEL_CAP;
  }();
  return static_cast<Level>(lvl);
}

Level active() {
  int v = g_active.load(std::memory_order_relaxed);
  if (v < 0) {
    v = resolve_default();
    g_active.store(v, std::memory_order_relaxed);
  }
  return static_cast<Level>(v);
}

void force(Level lvl) {
  g_active.store(clamp_to_supported(static_cast<int>(lvl)), std::memory_order_relaxed);
}

const char* name(Level lvl) { return per_level<const char*>(lvl, "scalar", "avx2", "avx512"); }

std::size_t lanes(Level lvl) { return per_level<std::size_t>(lvl, 1, 4, 8); }

std::size_t lanes() { return lanes(active()); }

std::size_t lanes_sp(Level lvl) { return per_level<std::size_t>(lvl, 1, 8, 16); }

std::size_t lanes_sp() { return lanes_sp(active()); }

// The kernels of simd_kernels.inc, compiled once per level: the level's
// namespace names its lane traits Lanes<T> and its target attribute.
namespace scalar_level {
template <class T>
using Lanes = Scalar1<T>;
#define DP_KERNEL_TARGET
#include "common/simd_kernels.inc"
#undef DP_KERNEL_TARGET
}  // namespace scalar_level

#if DP_SIMD_X86
namespace avx2_level {
template <class T>
using Lanes = std::conditional_t<std::is_same_v<T, float>, AVX2LanesF, AVX2Lanes>;
#define DP_KERNEL_TARGET DP_TARGET_AVX2
#include "common/simd_kernels.inc"
#undef DP_KERNEL_TARGET
}  // namespace avx2_level

namespace avx512_level {
template <class T>
using Lanes = std::conditional_t<std::is_same_v<T, float>, AVX512LanesF, AVX512Lanes>;
#define DP_KERNEL_TARGET DP_TARGET_AVX512
#include "common/simd_kernels.inc"
#undef DP_KERNEL_TARGET
}  // namespace avx512_level
#else
namespace avx2_level = scalar_level;
namespace avx512_level = scalar_level;
#endif

// One kernel instance per level; __VA_ARGS__ keeps template argument commas.
#define DP_PICK(lvl, ...)                                              \
  per_level((lvl), scalar_level::__VA_ARGS__, avx2_level::__VA_ARGS__, \
            avx512_level::__VA_ARGS__)

template <class C>
TableWalkFn<C> pick_table_walk(Level lvl, bool deriv, bool stream) {
  if (!deriv) return DP_PICK(lvl, table_walk<C, false, false>);
  if (stream) return DP_PICK(lvl, table_walk<C, true, true>);
  return DP_PICK(lvl, table_walk<C, true, false>);
}
template TableWalkFn<double> pick_table_walk<double>(Level, bool, bool);
template TableWalkFn<float> pick_table_walk<float>(Level, bool, bool);
template TableWalkFn<_Float16> pick_table_walk<_Float16>(Level, bool, bool);

template <class T>
Rank1Fn<T> pick_rank1(Level lvl) {
  return DP_PICK(lvl, rank1_update<T>);
}
template Rank1Fn<double> pick_rank1<double>(Level);
template Rank1Fn<float> pick_rank1<float>(Level);

template <class T>
SlotGradientFn<T> pick_slot_gradient(Level lvl) {
  return DP_PICK(lvl, slot_gradient<T>);
}
template SlotGradientFn<double> pick_slot_gradient<double>(Level);
template SlotGradientFn<float> pick_slot_gradient<float>(Level);

DescriptorForwardFn pick_descriptor_forward(Level lvl) {
  return DP_PICK(lvl, descriptor_forward);
}
DescriptorBackwardFn pick_descriptor_backward(Level lvl) {
  return DP_PICK(lvl, descriptor_backward);
}
PairGradientsFn pick_pair_gradients(Level lvl) { return DP_PICK(lvl, pair_gradients); }

#undef DP_PICK

}  // namespace dp::simd
