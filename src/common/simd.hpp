// Runtime-dispatched SIMD layer for the hot loops of the DP inference path
// (paper Sec 3.5.3 / Fig 5: the A64FX port hand-vectorizes the quintic table
// walk and the tanh table with 512-bit SVE; on x86 the same kernels map onto
// AVX2 and AVX-512).
//
// Design:
//   * The instruction-set level is picked ONCE at startup: CPUID caps the
//     hardware level, the CMake option -DDP_SIMD_LEVEL=scalar|avx2|avx512
//     caps it at configure time, and the env var DP_SIMD=scalar|avx2|avx512
//     lowers it per run (testing / benchmarking). `active()` returns the
//     resolved level, `lanes()` its vector width in doubles.
//   * A kernel is written once, as a template over a lane-traits type
//     (ScalarLanes / AVX2Lanes / AVX512Lanes and their float twins below),
//     and compiled once per level inside a function carrying that level's
//     target attribute (common/simd_kernels.inc, nn/gemm_kernels.inc). The
//     whole tree still compiles with generic (-DDP_ENABLE_NATIVE=OFF) flags
//     and the AVX paths are only ever *executed* after the CPUID check.
//     Vector values never cross a non-annotated ABI boundary (a -Wpsabi
//     hazard): dispatchers hand out function pointers taking scalars and
//     pointers.
//   * All raw intrinsics are confined to this header (dplint rule
//     raw-intrinsics); kernels use the always_inline lane ops below, which
//     carry the same target attribute as their callers.
//
// Numerical contract (what the parity suites pin down): vector lanes use the
// hardware FMA and Level::Scalar is the same kernel body at lane width 1 with
// std::fma — one rounding per fma either way. So every elementwise kernel
// (table walk, rank-1 update, descriptor forward, prod-force pair gradients)
// is bitwise identical across levels. Reductions fold the lanes through the
// level's fixed reduce_add tree: bitwise reproducible at a fixed level, and
// levels differ only by that reassociation.
#pragma once

#include <cmath>
#include <cstddef>
#include <type_traits>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#include <immintrin.h>
#define DP_SIMD_X86 1
// F16C (vcvtph2ps, the half -> float widener of the half-precision table
// walk) is part of the AVX2 level: every AVX2 CPU has it, and hardware_level()
// checks it with the others. AVX-512 needs nothing extra: _mm512_cvtph_ps is
// plain AVX512F.
#define DP_TARGET_AVX2 __attribute__((target("avx2,fma,f16c")))
#define DP_TARGET_AVX512 __attribute__((target("avx2,fma,f16c,avx512f,avx512dq")))
#else
#define DP_SIMD_X86 0
#define DP_TARGET_AVX2
#define DP_TARGET_AVX512
#endif

namespace dp::simd {

/// Instruction-set levels, ordered so numeric comparison means capability.
enum class Level : int { Scalar = 0, AVX2 = 1, AVX512 = 2 };

/// Best level this binary may use: min(CPUID, -DDP_SIMD_LEVEL cap).
Level max_supported();

/// The level the kernels dispatch on: max_supported() lowered by DP_SIMD,
/// resolved once on first use.
Level active();

/// Test/bench hook: override the active level (clamped to max_supported()).
void force(Level lvl);

/// "scalar" / "avx2" / "avx512".
const char* name(Level lvl);

/// Vector width in doubles at `lvl` (1 / 4 / 8).
std::size_t lanes(Level lvl);

/// Vector width in doubles at active().
std::size_t lanes();

/// Vector width in floats at `lvl` (1 / 8 / 16) — the float-lane kernels
/// move twice as many channels per instruction as the double ones.
std::size_t lanes_sp(Level lvl);

/// Vector width in floats at active().
std::size_t lanes_sp();

#define DP_SIMD_OP inline __attribute__((always_inline))

/// Lane traits: one level's wrapper ops for element type E behind one
/// spelling, so a kernel body is written once as a template over L.
/// kRegisters is the architectural vector register count, which sizes
/// register-blocked tiles. Width-1 lanes: std::fma — the same single-rounding
/// op the vector lanes use. load_h widens IEEE binary16 coefficients exactly.
template <class T>
struct Scalar1 {
  using E = T;
  using V = T;
  static constexpr std::size_t kWidth = 1;
  static constexpr std::size_t kRegisters = 16;
  static DP_SIMD_OP V zero() { return T(0); }
  static DP_SIMD_OP V set1(T a) { return a; }
  static DP_SIMD_OP V loadu(const T* p) { return *p; }
  static DP_SIMD_OP V load_h(const _Float16* p) { return static_cast<T>(*p); }
  static DP_SIMD_OP void storeu(T* p, V a) { *p = a; }
  static DP_SIMD_OP void stream(T* p, V a) { *p = a; }
  static DP_SIMD_OP V mul(V a, V b) { return a * b; }
  static DP_SIMD_OP V fmadd(V a, V b, V c) { return std::fma(a, b, c); }
  static DP_SIMD_OP T reduce_add(V a) { return a; }
};
using ScalarLanes = Scalar1<double>;

#if DP_SIMD_X86

// ---------------------------------------------------------------------------
// Free wrapper ops of the tanh-table gather kernels. Callers must carry the
// matching target attribute (or a superset) — always_inline enforces this at
// compile time.
// ---------------------------------------------------------------------------
using v4d = __m256d;
using v4i = __m128i;

DP_TARGET_AVX2 DP_SIMD_OP v4d v4_set1(double a) { return _mm256_set1_pd(a); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_loadu(const double* p) { return _mm256_loadu_pd(p); }
DP_TARGET_AVX2 DP_SIMD_OP void v4_storeu(double* p, v4d a) { _mm256_storeu_pd(p, a); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_sub(v4d a, v4d b) { return _mm256_sub_pd(a, b); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_mul(v4d a, v4d b) { return _mm256_mul_pd(a, b); }
/// a * b + c, single rounding.
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_fmadd(v4d a, v4d b, v4d c) { return _mm256_fmadd_pd(a, b, c); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_abs(v4d a) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
}
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_neg(v4d a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_cmp_ge(v4d a, v4d b) {
  return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
}
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_cmp_lt(v4d a, v4d b) {
  return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}
/// b where mask, else a (mask from v4_cmp_*).
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_blend(v4d a, v4d b, v4d mask) {
  return _mm256_blendv_pd(a, b, mask);
}
/// Truncating double -> i32 conversion (the vector form of (size_t)(u)).
DP_TARGET_AVX2 DP_SIMD_OP v4i v4_cvtt_i32(v4d a) { return _mm256_cvttpd_epi32(a); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_cvt_f64(v4i a) { return _mm256_cvtepi32_pd(a); }
/// p[idx[l]] per lane, 8-byte scale. The masked form with an explicit zero
/// source: the plain intrinsic's undefined destination register trips GCC's
/// -Wmaybe-uninitialized; the full mask makes it the same single gather.
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_gather(const double* p, v4i idx) {
  const v4d zero = _mm256_setzero_pd();
  return _mm256_mask_i32gather_pd(zero, p, idx, _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ), 8);
}
DP_TARGET_AVX2 DP_SIMD_OP v4i i4_set1(int a) { return _mm_set1_epi32(a); }
DP_TARGET_AVX2 DP_SIMD_OP v4i i4_add(v4i a, v4i b) { return _mm_add_epi32(a, b); }
DP_TARGET_AVX2 DP_SIMD_OP v4i i4_min(v4i a, v4i b) { return _mm_min_epi32(a, b); }
DP_TARGET_AVX2 DP_SIMD_OP v4i i4_max(v4i a, v4i b) { return _mm_max_epi32(a, b); }

using v8d = __m512d;
using v8i = __m256i;
using m8 = __mmask8;

DP_TARGET_AVX512 DP_SIMD_OP v8d v8_set1(double a) { return _mm512_set1_pd(a); }
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_loadu(const double* p) { return _mm512_loadu_pd(p); }
DP_TARGET_AVX512 DP_SIMD_OP void v8_storeu(double* p, v8d a) { _mm512_storeu_pd(p, a); }
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_sub(v8d a, v8d b) { return _mm512_sub_pd(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_mul(v8d a, v8d b) { return _mm512_mul_pd(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_fmadd(v8d a, v8d b, v8d c) {
  return _mm512_fmadd_pd(a, b, c);
}
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_abs(v8d a) {
  return _mm512_andnot_pd(_mm512_set1_pd(-0.0), a);
}
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_neg(v8d a) {
  return _mm512_xor_pd(a, _mm512_set1_pd(-0.0));
}
DP_TARGET_AVX512 DP_SIMD_OP m8 v8_cmp_ge(v8d a, v8d b) {
  return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
}
DP_TARGET_AVX512 DP_SIMD_OP m8 v8_cmp_lt(v8d a, v8d b) {
  return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
}
/// b where mask bit set, else a.
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_blend(v8d a, v8d b, m8 mask) {
  return _mm512_mask_blend_pd(mask, a, b);
}
// Masked conversion forms with zero sources, for the same GCC
// -Wmaybe-uninitialized reason as the gathers (the plain intrinsics read an
// undefined destination); the full mask converts every lane.
DP_TARGET_AVX512 DP_SIMD_OP v8i v8_cvtt_i32(v8d a) {
  return _mm512_mask_cvttpd_epi32(_mm256_setzero_si256(), static_cast<m8>(0xff), a);
}
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_cvt_f64(v8i a) {
  return _mm512_mask_cvtepi32_pd(_mm512_setzero_pd(), static_cast<m8>(0xff), a);
}
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_gather(const double* p, v8i idx) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), static_cast<m8>(0xff), idx, p, 8);
}
DP_TARGET_AVX512 DP_SIMD_OP v8i i8_set1(int a) { return _mm256_set1_epi32(a); }
DP_TARGET_AVX512 DP_SIMD_OP v8i i8_add(v8i a, v8i b) { return _mm256_add_epi32(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v8i i8_min(v8i a, v8i b) { return _mm256_min_epi32(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v8i i8_max(v8i a, v8i b) { return _mm256_max_epi32(a, b); }

/// Drains the write-combining buffers after a run of non-temporal `stream`
/// stores, so later reads (possibly from another thread, after a barrier)
/// observe them. sfence is baseline x86-64 — no target attribute needed.
inline __attribute__((always_inline)) void store_fence() { _mm_sfence(); }

// ---------------------------------------------------------------------------
// Vector lane traits. `stream` is a non-temporal store: it bypasses the cache
// hierarchy, for output runs far larger than the LLC where a regular store's
// read-for-ownership doubles the memory traffic. It needs a vector-aligned p
// and stores the same bits as storeu; end the run with store_fence().
// reduce_add folds in a fixed lane order — one compiled sequence per level,
// so dot-product reductions are bitwise reproducible. The 512-bit folds use
// the maskz extract: GCC 12 lowers the plain extract and the 512->256 cast
// through an undefined merge operand, which trips
// -Werror=maybe-uninitialized; the maskz form emits the same instruction.
// ---------------------------------------------------------------------------

/// AVX2, 4 doubles; callers must be DP_TARGET_AVX2 or a superset.
struct AVX2Lanes {
  using E = double;
  using V = __m256d;
  static constexpr std::size_t kWidth = 4;
  static constexpr std::size_t kRegisters = 16;
  DP_TARGET_AVX2 static DP_SIMD_OP V zero() { return _mm256_setzero_pd(); }
  DP_TARGET_AVX2 static DP_SIMD_OP V set1(double a) { return _mm256_set1_pd(a); }
  DP_TARGET_AVX2 static DP_SIMD_OP V loadu(const double* p) { return _mm256_loadu_pd(p); }
  DP_TARGET_AVX2 static DP_SIMD_OP void storeu(double* p, V a) { _mm256_storeu_pd(p, a); }
  DP_TARGET_AVX2 static DP_SIMD_OP void stream(double* p, V a) { _mm256_stream_pd(p, a); }
  DP_TARGET_AVX2 static DP_SIMD_OP V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  DP_TARGET_AVX2 static DP_SIMD_OP V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  /// (l0+l2) + (l1+l3).
  DP_TARGET_AVX2 static DP_SIMD_OP double reduce_add(V a) {
    const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(a), _mm256_extractf128_pd(a, 1));
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
};

/// AVX2, 8 floats; callers must be DP_TARGET_AVX2 or a superset.
struct AVX2LanesF {
  using E = float;
  using V = __m256;
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kRegisters = 16;
  DP_TARGET_AVX2 static DP_SIMD_OP V zero() { return _mm256_setzero_ps(); }
  DP_TARGET_AVX2 static DP_SIMD_OP V set1(float a) { return _mm256_set1_ps(a); }
  DP_TARGET_AVX2 static DP_SIMD_OP V loadu(const float* p) { return _mm256_loadu_ps(p); }
  DP_TARGET_AVX2 static DP_SIMD_OP V load_h(const _Float16* p) {
    return _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  DP_TARGET_AVX2 static DP_SIMD_OP void storeu(float* p, V a) { _mm256_storeu_ps(p, a); }
  DP_TARGET_AVX2 static DP_SIMD_OP void stream(float* p, V a) { _mm256_stream_ps(p, a); }
  DP_TARGET_AVX2 static DP_SIMD_OP V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  DP_TARGET_AVX2 static DP_SIMD_OP V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  /// 128-bit halves first, then the same shuffle tree every time.
  DP_TARGET_AVX2 static DP_SIMD_OP float reduce_add(V a) {
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(a), _mm256_extractf128_ps(a, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    return _mm_cvtss_f32(_mm_add_ss(s, _mm_movehdup_ps(s)));
  }
};

/// AVX-512, 8 doubles; callers must be DP_TARGET_AVX512.
struct AVX512Lanes {
  using E = double;
  using V = __m512d;
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kRegisters = 32;
  DP_TARGET_AVX512 static DP_SIMD_OP V zero() { return _mm512_setzero_pd(); }
  DP_TARGET_AVX512 static DP_SIMD_OP V set1(double a) { return _mm512_set1_pd(a); }
  DP_TARGET_AVX512 static DP_SIMD_OP V loadu(const double* p) { return _mm512_loadu_pd(p); }
  DP_TARGET_AVX512 static DP_SIMD_OP void storeu(double* p, V a) { _mm512_storeu_pd(p, a); }
  DP_TARGET_AVX512 static DP_SIMD_OP void stream(double* p, V a) { _mm512_stream_pd(p, a); }
  DP_TARGET_AVX512 static DP_SIMD_OP V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  DP_TARGET_AVX512 static DP_SIMD_OP V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  /// 256-bit halves first, then the AVX2Lanes tree.
  DP_TARGET_AVX512 static DP_SIMD_OP double reduce_add(V a) {
    return AVX2Lanes::reduce_add(_mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xf, a, 0),
                                               _mm512_maskz_extractf64x4_pd(0xf, a, 1)));
  }
};

/// AVX-512, 16 floats — one vector covers a whole 16-channel table block.
struct AVX512LanesF {
  using E = float;
  using V = __m512;
  static constexpr std::size_t kWidth = 16;
  static constexpr std::size_t kRegisters = 32;
  DP_TARGET_AVX512 static DP_SIMD_OP V zero() { return _mm512_setzero_ps(); }
  DP_TARGET_AVX512 static DP_SIMD_OP V set1(float a) { return _mm512_set1_ps(a); }
  DP_TARGET_AVX512 static DP_SIMD_OP V loadu(const float* p) { return _mm512_loadu_ps(p); }
  /// Maskz form: the plain _mm512_cvtph_ps carries the undefined merge too.
  DP_TARGET_AVX512 static DP_SIMD_OP V load_h(const _Float16* p) {
    return _mm512_maskz_cvtph_ps(0xffff,
                                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  DP_TARGET_AVX512 static DP_SIMD_OP void storeu(float* p, V a) { _mm512_storeu_ps(p, a); }
  DP_TARGET_AVX512 static DP_SIMD_OP void stream(float* p, V a) { _mm512_stream_ps(p, a); }
  DP_TARGET_AVX512 static DP_SIMD_OP V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  DP_TARGET_AVX512 static DP_SIMD_OP V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  /// 256-bit halves first (extractf32x8 is AVX512DQ), then the AVX2LanesF tree.
  DP_TARGET_AVX512 static DP_SIMD_OP float reduce_add(V a) {
    return AVX2LanesF::reduce_add(_mm256_add_ps(_mm512_maskz_extractf32x8_ps(0xff, a, 0),
                                                _mm512_maskz_extractf32x8_ps(0xff, a, 1)));
  }
};

#else
inline void store_fence() {}
#endif  // DP_SIMD_X86

#undef DP_SIMD_OP

// ---------------------------------------------------------------------------
// The dispatched kernels of the DP inference path (common/simd_kernels.inc).
// Each pick_* returns the kernel compiled for `lvl`; callers resolve it once
// per call or per compute(), outside any thread team, so every thread runs
// the same instance.
// ---------------------------------------------------------------------------

/// Arithmetic type of a table whose coefficients are stored as C: double
/// tables evaluate in double, float and _Float16 tables in float.
template <class C>
using TableReal = std::conditional_t<std::is_same_v<C, double>, double, float>;

/// Channels per block of the blocked table layout: 16, as the paper chose
/// for the dual FP pipelines of A64FX (two 512-bit vectors of doubles).
inline constexpr std::size_t kTableLane = 16;

/// Quintic table walk of one interval: `coef` holds its blocks of six
/// coefficient streams of kTableLane channels ([block][k][lane]); writes
/// g[0..m) and, for a derivative walk, dg[0..m) at local coordinate t.
template <class C>
using TableWalkFn = void (*)(const C* coef, TableReal<C> t, std::size_t m, TableReal<C>* g,
                             TableReal<C>* dg);
/// `deriv` selects the value + derivative walk (dg written; else dg unused),
/// `stream` non-temporal vector stores (every g/dg row vector-aligned).
template <class C>
TableWalkFn<C> pick_table_walk(Level lvl, bool deriv, bool stream);

/// Pass-1 rank-1 update of the fused kernels: a[c][b] += r[c] * row[b] for
/// the four env columns c (a is 4 x m, row-major).
template <class T>
using Rank1Fn = void (*)(const T* r, const T* row, std::size_t m, T* a);
template <class T>
Rank1Fn<T> pick_rank1(Level lvl);

/// Pass-2 per-slot contraction: grow[c] = <g_a[c], row>, plus the dE/ds
/// table term <sum_c r[c] g_a[c], drow> folded into column 0; accumulated in
/// T and widened to double.
template <class T>
using SlotGradientFn = void (*)(const T* r, const T* row, const T* drow, const T* g_a,
                                std::size_t m, double* grow);
template <class T>
SlotGradientFn<T> pick_slot_gradient(Level lvl);

/// D = A<^T A and its adjoint (dp/descriptor.hpp has the algebra).
using DescriptorForwardFn = void (*)(const double* a_mat, std::size_t m, std::size_t m_sub,
                                     double* d_flat);
DescriptorForwardFn pick_descriptor_forward(Level lvl);
using DescriptorBackwardFn = void (*)(const double* a_mat, const double* g_d, std::size_t m,
                                      std::size_t m_sub, double* g_a);
DescriptorBackwardFn pick_descriptor_backward(Level lvl);

/// Most slots per pair_gradients call (its SoA staging lives on the stack).
inline constexpr int kPairChunk = 64;
/// f[3k + l] = sum_c g_rows[4k + c] * d_rows[12k + 3c + l] for k < cnt <=
/// kPairChunk: the prod-force pair gradient dE/d(r_j - r_i) of each slot.
using PairGradientsFn = void (*)(const double* g_rows, const double* d_rows, int cnt,
                                 double* f);
PairGradientsFn pick_pair_gradients(Level lvl);

}  // namespace dp::simd
