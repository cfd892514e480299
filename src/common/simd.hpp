// Runtime-dispatched SIMD layer for the tabulated hot loops (paper Sec
// 3.5.3 / Fig 5: the A64FX port hand-vectorizes the quintic table walk and
// the tanh table with 512-bit SVE; on x86 the same kernels map onto AVX2 and
// AVX-512).
//
// Design:
//   * The instruction-set level is picked ONCE at startup: CPUID caps the
//     hardware level, the CMake option -DDP_SIMD_LEVEL=scalar|avx2|avx512
//     caps it at configure time, and the env var DP_SIMD=scalar|avx2|avx512
//     lowers it per run (testing / benchmarking). `active()` returns the
//     resolved level, `lanes()` its vector width in doubles.
//   * Kernels live next to their tables (tanh_table.cpp, table.cpp, ...) as
//     ordinary functions annotated DP_TARGET_AVX2 / DP_TARGET_AVX512, so the
//     whole tree still compiles with the generic (-DDP_ENABLE_NATIVE=OFF)
//     flags and the AVX paths are only ever *executed* after the CPUID
//     check. Vector values never cross a non-annotated ABI boundary (that
//     would be a -Wpsabi hazard): dispatchers pass scalars and pointers.
//   * All raw intrinsics are confined to this header (dplint rule
//     raw-intrinsics); kernels use the dp::simd wrapper ops below, which are
//     always_inline and carry the same target attribute as their callers.
//
// Numerical contract (what the parity suite pins down): at a given level the
// AoS and blocked table walks use the *same* elementwise operation sequence
// — vector lanes use hardware FMA and scalar tails use std::fma (which the
// annotated functions compile to the scalar FMA instruction) — so the two
// layouts stay bitwise identical at every level. Level::Scalar keeps the
// exact pre-SIMD expressions; AVX levels may differ from it by an ulp.
#pragma once

#include <cmath>
#include <cstddef>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#include <immintrin.h>
#define DP_SIMD_X86 1
#define DP_TARGET_AVX2 __attribute__((target("avx2,fma")))
// f16c (the vcvtph2ps half->float widener) is NOT implied by the avx2 target
// attribute, so the half-precision table kernels carry their own superset
// attribute and dispatchers additionally gate on has_f16c(). AVX-512 needs no
// extra feature: _mm512_cvtph_ps is plain AVX512F.
#define DP_TARGET_AVX2_F16C __attribute__((target("avx2,fma,f16c")))
#define DP_TARGET_AVX512 __attribute__((target("avx2,fma,avx512f,avx512dq")))
#else
#define DP_SIMD_X86 0
#define DP_TARGET_AVX2
#define DP_TARGET_AVX2_F16C
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

/// CPUID: vcvtph2ps available? Gates the AVX2 half-precision table kernels
/// (see DP_TARGET_AVX2_F16C above). Always true on AVX-512 hardware.
bool has_f16c();

#define DP_SIMD_OP inline __attribute__((always_inline))

/// Lane traits: one level's double-precision wrapper ops behind one spelling,
/// so a kernel body is written once as a template over L and instantiated
/// per target attribute (nn/gemm.cpp). kRegisters is the architectural
/// vector register count, which sizes register-blocked tiles.
/// Scalar lanes: width 1, std::fma — the same single-rounding op the vector
/// lanes use, so elementwise fma chains agree bitwise across levels.
struct ScalarLanes {
  using V = double;
  static constexpr std::size_t kWidth = 1;
  static constexpr std::size_t kRegisters = 16;
  static DP_SIMD_OP V zero() { return 0.0; }
  static DP_SIMD_OP V set1(double a) { return a; }
  static DP_SIMD_OP V loadu(const double* p) { return *p; }
  static DP_SIMD_OP void storeu(double* p, V a) { *p = a; }
  static DP_SIMD_OP V fmadd(V a, V b, V c) { return std::fma(a, b, c); }
  static DP_SIMD_OP double reduce_add(V a) { return a; }
};

#if DP_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2: 4 doubles per vector, 4 x i32 indices. Callers must be annotated
// DP_TARGET_AVX2 (or a superset) — always_inline enforces this at compile
// time.
// ---------------------------------------------------------------------------
using v4d = __m256d;
using v4i = __m128i;

DP_TARGET_AVX2 DP_SIMD_OP v4d v4_set1(double a) { return _mm256_set1_pd(a); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_load(const double* p) { return _mm256_load_pd(p); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_loadu(const double* p) { return _mm256_loadu_pd(p); }
DP_TARGET_AVX2 DP_SIMD_OP void v4_storeu(double* p, v4d a) { _mm256_storeu_pd(p, a); }
/// Non-temporal store: bypasses the cache hierarchy, for output runs far
/// larger than the LLC where a regular store's read-for-ownership doubles
/// the memory traffic. Requires a 32-byte-aligned p; stored bits are
/// identical to v4_storeu. Callers must end the run with store_fence().
DP_TARGET_AVX2 DP_SIMD_OP void v4_stream(double* p, v4d a) { _mm256_stream_pd(p, a); }
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_add(v4d a, v4d b) { return _mm256_add_pd(a, b); }
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
DP_TARGET_AVX2 DP_SIMD_OP v4d v4_zero() { return _mm256_setzero_pd(); }
/// Horizontal sum, fixed lane order: (l0+l2) + (l1+l3). One compiled
/// sequence per level so dot-product reductions are bitwise reproducible.
DP_TARGET_AVX2 DP_SIMD_OP double v4_reduce_add(v4d a) {
  __m128d lo = _mm256_castpd256_pd128(a);
  __m128d hi = _mm256_extractf128_pd(a, 1);
  __m128d s = _mm_add_pd(lo, hi);                    // {l0+l2, l1+l3}
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// ---------------------------------------------------------------------------
// AVX2 float lane: 8 floats per vector — the mixed-precision table walk and
// the float contraction kernels move twice the channels per instruction.
// Same discipline as the double ops: callers are DP_TARGET_AVX2 (or the
// F16C/AVX-512 supersets), values never cross a non-annotated ABI boundary.
// ---------------------------------------------------------------------------
using v8f = __m256;

DP_TARGET_AVX2 DP_SIMD_OP v8f f8_set1(float a) { return _mm256_set1_ps(a); }
DP_TARGET_AVX2 DP_SIMD_OP v8f f8_zero() { return _mm256_setzero_ps(); }
DP_TARGET_AVX2 DP_SIMD_OP v8f f8_load(const float* p) { return _mm256_load_ps(p); }
DP_TARGET_AVX2 DP_SIMD_OP v8f f8_loadu(const float* p) { return _mm256_loadu_ps(p); }
DP_TARGET_AVX2 DP_SIMD_OP void f8_storeu(float* p, v8f a) { _mm256_storeu_ps(p, a); }
/// Non-temporal store (see v4_stream); requires a 32-byte-aligned p.
DP_TARGET_AVX2 DP_SIMD_OP void f8_stream(float* p, v8f a) { _mm256_stream_ps(p, a); }
DP_TARGET_AVX2 DP_SIMD_OP v8f f8_add(v8f a, v8f b) { return _mm256_add_ps(a, b); }
DP_TARGET_AVX2 DP_SIMD_OP v8f f8_sub(v8f a, v8f b) { return _mm256_sub_ps(a, b); }
DP_TARGET_AVX2 DP_SIMD_OP v8f f8_mul(v8f a, v8f b) { return _mm256_mul_ps(a, b); }
/// a * b + c, single rounding.
DP_TARGET_AVX2 DP_SIMD_OP v8f f8_fmadd(v8f a, v8f b, v8f c) { return _mm256_fmadd_ps(a, b, c); }
/// Horizontal sum, fixed lane order: pairwise 128-bit fold then the same
/// shuffle tree every time — reproducible, like v4_reduce_add.
DP_TARGET_AVX2 DP_SIMD_OP float f8_reduce_add(v8f a) {
  __m128 lo = _mm256_castps256_ps128(a);
  __m128 hi = _mm256_extractf128_ps(a, 1);
  __m128 s = _mm_add_ps(lo, hi);                     // {l0+l4, l1+l5, l2+l6, l3+l7}
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));            // {+l2+l6, +l3+l7, ...}
  return _mm_cvtss_f32(_mm_add_ss(s, _mm_movehdup_ps(s)));
}
/// Widen 8 IEEE binary16 values (stored contiguously) to 8 floats. The
/// conversion is exact — every half is representable as a float — so the
/// half table walk matches the scalar static_cast widening bit for bit.
DP_TARGET_AVX2_F16C DP_SIMD_OP v8f f8_load_h(const void* p) {
  return _mm256_cvtph_ps(_mm_loadu_si128(static_cast<const __m128i*>(p)));
}

// ---------------------------------------------------------------------------
// AVX-512: 8 doubles per vector, 8 x i32 indices, predicate masks. Callers
// must be annotated DP_TARGET_AVX512.
// ---------------------------------------------------------------------------
using v8d = __m512d;
using v8i = __m256i;
using m8 = __mmask8;
using m16 = __mmask16;

DP_TARGET_AVX512 DP_SIMD_OP v8d v8_set1(double a) { return _mm512_set1_pd(a); }
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_load(const double* p) { return _mm512_load_pd(p); }
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_loadu(const double* p) { return _mm512_loadu_pd(p); }
DP_TARGET_AVX512 DP_SIMD_OP void v8_storeu(double* p, v8d a) { _mm512_storeu_pd(p, a); }
/// Non-temporal store (see v4_stream); requires a 64-byte-aligned p.
DP_TARGET_AVX512 DP_SIMD_OP void v8_stream(double* p, v8d a) { _mm512_stream_pd(p, a); }
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_add(v8d a, v8d b) { return _mm512_add_pd(a, b); }
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
  // Masked form with a zero source for the same -Wmaybe-uninitialized
  // reason as v4_gather; mask 0xff gathers every lane.
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), static_cast<m8>(0xff), idx, p, 8);
}
DP_TARGET_AVX512 DP_SIMD_OP v8i i8_set1(int a) { return _mm256_set1_epi32(a); }
DP_TARGET_AVX512 DP_SIMD_OP v8i i8_add(v8i a, v8i b) { return _mm256_add_epi32(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v8i i8_min(v8i a, v8i b) { return _mm256_min_epi32(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v8i i8_max(v8i a, v8i b) { return _mm256_max_epi32(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v8d v8_zero() { return _mm512_setzero_pd(); }
/// Horizontal sum, fixed lane order: 256-bit halves fold first, then the
/// v4_reduce_add tree. Hand-written (not _mm512_reduce_add_pd) because the
/// compiler expansion routes through _mm512_extractf64x4_pd's undefined merge
/// operand, which trips -Werror=maybe-uninitialized on GCC 12; the maskz
/// extract has a defined (zero) source and compiles to the same vextractf64x4.
DP_TARGET_AVX512 DP_SIMD_OP double v8_reduce_add(v8d a) {
  // Both halves via maskz extract: GCC 12 lowers _mm512_castpd512_pd256
  // through the undefined-merge extract too, so the cast is no escape hatch.
  __m256d lo = _mm512_maskz_extractf64x4_pd(static_cast<m8>(0xf), a, 0);
  __m256d hi = _mm512_maskz_extractf64x4_pd(static_cast<m8>(0xf), a, 1);
  __m256d s4 = _mm256_add_pd(lo, hi);                // {l0+l4, l1+l5, l2+l6, l3+l7}
  __m128d lo2 = _mm256_castpd256_pd128(s4);
  __m128d hi2 = _mm256_extractf128_pd(s4, 1);
  __m128d s = _mm_add_pd(lo2, hi2);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// ---------------------------------------------------------------------------
// AVX-512 float lane: 16 floats per vector — one vector covers a whole
// 16-channel table block.
// ---------------------------------------------------------------------------
using v16f = __m512;

DP_TARGET_AVX512 DP_SIMD_OP v16f f16_set1(float a) { return _mm512_set1_ps(a); }
DP_TARGET_AVX512 DP_SIMD_OP v16f f16_zero() { return _mm512_setzero_ps(); }
DP_TARGET_AVX512 DP_SIMD_OP v16f f16_load(const float* p) { return _mm512_load_ps(p); }
DP_TARGET_AVX512 DP_SIMD_OP v16f f16_loadu(const float* p) { return _mm512_loadu_ps(p); }
DP_TARGET_AVX512 DP_SIMD_OP void f16_storeu(float* p, v16f a) { _mm512_storeu_ps(p, a); }
/// Non-temporal store (see v4_stream); requires a 64-byte-aligned p.
DP_TARGET_AVX512 DP_SIMD_OP void f16_stream(float* p, v16f a) { _mm512_stream_ps(p, a); }
DP_TARGET_AVX512 DP_SIMD_OP v16f f16_add(v16f a, v16f b) { return _mm512_add_ps(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v16f f16_sub(v16f a, v16f b) { return _mm512_sub_ps(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v16f f16_mul(v16f a, v16f b) { return _mm512_mul_ps(a, b); }
DP_TARGET_AVX512 DP_SIMD_OP v16f f16_fmadd(v16f a, v16f b, v16f c) {
  return _mm512_fmadd_ps(a, b, c);
}
/// Horizontal sum, fixed lane order: 256-bit halves fold first, then the
/// f8_reduce_add tree. Hand-written for the same -Werror=maybe-uninitialized
/// reason as v8_reduce_add (maskz extract instead of the undefined-merge
/// compiler expansion; extractf32x8 is AVX512DQ, which the target includes).
DP_TARGET_AVX512 DP_SIMD_OP float f16_reduce_add(v16f a) {
  __m256 lo = _mm512_maskz_extractf32x8_ps(static_cast<m8>(0xff), a, 0);
  __m256 hi = _mm512_maskz_extractf32x8_ps(static_cast<m8>(0xff), a, 1);
  __m256 s8 = _mm256_add_ps(lo, hi);                 // {l0+l8, l1+l9, ..., l7+l15}
  __m128 lo2 = _mm256_castps256_ps128(s8);
  __m128 hi2 = _mm256_extractf128_ps(s8, 1);
  __m128 s = _mm_add_ps(lo2, hi2);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  return _mm_cvtss_f32(_mm_add_ss(s, _mm_movehdup_ps(s)));
}
/// Widen 16 contiguous IEEE binary16 values to 16 floats (exact; AVX512F).
/// Maskz form with an all-ones mask: the plain _mm512_cvtph_ps expansion
/// carries an undefined merge operand that trips -Werror=maybe-uninitialized
/// on GCC 12 (same story as v8_reduce_add); vcvtph2ps emitted either way.
DP_TARGET_AVX512 DP_SIMD_OP v16f f16_load_h(const void* p) {
  return _mm512_maskz_cvtph_ps(static_cast<m16>(0xffff),
                               _mm256_loadu_si256(static_cast<const __m256i*>(p)));
}

/// Drains the write-combining buffers after a run of v4_stream/v8_stream
/// stores, so later reads (possibly from another thread, after a barrier)
/// observe them. sfence is baseline x86-64 — no target attribute needed.
inline __attribute__((always_inline)) void store_fence() { _mm_sfence(); }

/// AVX2 lanes (4 doubles); callers must be DP_TARGET_AVX2 or a superset.
struct AVX2Lanes {
  using V = v4d;
  static constexpr std::size_t kWidth = 4;
  static constexpr std::size_t kRegisters = 16;
  DP_TARGET_AVX2 static DP_SIMD_OP V zero() { return v4_zero(); }
  DP_TARGET_AVX2 static DP_SIMD_OP V set1(double a) { return v4_set1(a); }
  DP_TARGET_AVX2 static DP_SIMD_OP V loadu(const double* p) { return v4_loadu(p); }
  DP_TARGET_AVX2 static DP_SIMD_OP void storeu(double* p, V a) { v4_storeu(p, a); }
  DP_TARGET_AVX2 static DP_SIMD_OP V fmadd(V a, V b, V c) { return v4_fmadd(a, b, c); }
  DP_TARGET_AVX2 static DP_SIMD_OP double reduce_add(V a) { return v4_reduce_add(a); }
};

/// AVX-512 lanes (8 doubles); callers must be DP_TARGET_AVX512.
struct AVX512Lanes {
  using V = v8d;
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kRegisters = 32;
  DP_TARGET_AVX512 static DP_SIMD_OP V zero() { return v8_zero(); }
  DP_TARGET_AVX512 static DP_SIMD_OP V set1(double a) { return v8_set1(a); }
  DP_TARGET_AVX512 static DP_SIMD_OP V loadu(const double* p) { return v8_loadu(p); }
  DP_TARGET_AVX512 static DP_SIMD_OP void storeu(double* p, V a) { v8_storeu(p, a); }
  DP_TARGET_AVX512 static DP_SIMD_OP V fmadd(V a, V b, V c) { return v8_fmadd(a, b, c); }
  DP_TARGET_AVX512 static DP_SIMD_OP double reduce_add(V a) { return v8_reduce_add(a); }
};

#endif  // DP_SIMD_X86

#undef DP_SIMD_OP

}  // namespace dp::simd
