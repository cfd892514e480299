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
// (table walk, the fused pass-1 contraction, descriptor forward, env rows,
// prod-force pair gradients) is bitwise identical across levels. Reductions
// fold the lanes through the level's fixed reduce_add tree: bitwise
// reproducible at a fixed level, and levels differ only by that
// reassociation.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// 2^52 + 1023: n + kPow2Bias holds n + 1023 in its low mantissa bits for
/// an integral n in [-1022, 1023], and shifting those bits 52 places up
/// into the exponent field leaves 2^n (the lane traits' pow2i).
inline constexpr double kPow2Bias = 0x1.00000000003ffp52;

/// Lane traits: one level's wrapper ops for element type E behind one
/// spelling, so a kernel body is written once as a template over L.
/// kRegisters is the architectural vector register count, which sizes
/// register-blocked tiles. Width-1 lanes: std::fma — the same single-rounding
/// op the vector lanes use. load_h widens IEEE binary16 coefficients exactly.
template <class T>
struct Scalar1 {
  using E = T;
  using V = T;
  using M = bool;
  static constexpr std::size_t kWidth = 1;
  static constexpr std::size_t kRegisters = 16;
  static DP_SIMD_OP V zero() { return T(0); }
  static DP_SIMD_OP V set1(T a) { return a; }
  static DP_SIMD_OP V loadu(const T* p) { return *p; }
  static DP_SIMD_OP V load_h(const _Float16* p) { return static_cast<T>(*p); }
  static DP_SIMD_OP void storeu(T* p, V a) { *p = a; }
  static DP_SIMD_OP void stream(T* p, V a) { *p = a; }
  static DP_SIMD_OP V add(V a, V b) { return a + b; }
  static DP_SIMD_OP V mul(V a, V b) { return a * b; }
  static DP_SIMD_OP V div(V a, V b) { return a / b; }
  static DP_SIMD_OP V fmadd(V a, V b, V c) { return std::fma(a, b, c); }
  static DP_SIMD_OP T reduce_add(V a) { return a; }
  // Elementwise ops of the double kernels (simd::pick_tanh,
  // simd::pick_env_rows), each the same bits as its vector twin below.
  static DP_SIMD_OP V sub(V a, V b) { return a - b; }
  static DP_SIMD_OP V sqrt(V a) { return std::sqrt(a); }
  /// -(a b) + c, one rounding.
  static DP_SIMD_OP V fnmadd(V a, V b, V c) { return std::fma(-a, b, c); }
  /// a b - c, one rounding.
  static DP_SIMD_OP V fmsub(V a, V b, V c) { return std::fma(a, b, -c); }
  /// x86 min semantics: b when either operand is NaN.
  static DP_SIMD_OP V min(V a, V b) { return a < b ? a : b; }
  static DP_SIMD_OP V abs(V a) { return std::fabs(a); }
  /// |mag| with the sign bit of sgn.
  static DP_SIMD_OP V copysign(V mag, V sgn) { return std::copysign(mag, sgn); }
  /// Nearest integer, ties to even (the default rounding mode).
  static DP_SIMD_OP V round(V a) { return std::nearbyint(a); }
  /// 2^n for an integral n in [-1022, 1023], from its exponent bits.
  static DP_SIMD_OP V pow2i(V n) {
    static_assert(std::is_same_v<T, double>, "pow2i builds a binary64 exponent");
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(n + kPow2Bias) << 52);
  }
  /// Ordered a >= b: false when either is NaN.
  static DP_SIMD_OP M cmp_ge(V a, V b) { return a >= b; }
  /// b where mask, else a.
  static DP_SIMD_OP V blend(V a, V b, M mask) { return mask ? b : a; }
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
  DP_TARGET_AVX2 static DP_SIMD_OP V add(V a, V b) { return _mm256_add_pd(a, b); }
  DP_TARGET_AVX2 static DP_SIMD_OP V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  DP_TARGET_AVX2 static DP_SIMD_OP V div(V a, V b) { return _mm256_div_pd(a, b); }
  DP_TARGET_AVX2 static DP_SIMD_OP V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  /// (l0+l2) + (l1+l3).
  DP_TARGET_AVX2 static DP_SIMD_OP double reduce_add(V a) {
    const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(a), _mm256_extractf128_pd(a, 1));
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
  using M = __m256d;
  DP_TARGET_AVX2 static DP_SIMD_OP V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  DP_TARGET_AVX2 static DP_SIMD_OP V sqrt(V a) { return _mm256_sqrt_pd(a); }
  DP_TARGET_AVX2 static DP_SIMD_OP V fnmadd(V a, V b, V c) { return _mm256_fnmadd_pd(a, b, c); }
  DP_TARGET_AVX2 static DP_SIMD_OP V fmsub(V a, V b, V c) { return _mm256_fmsub_pd(a, b, c); }
  DP_TARGET_AVX2 static DP_SIMD_OP V min(V a, V b) { return _mm256_min_pd(a, b); }
  DP_TARGET_AVX2 static DP_SIMD_OP V abs(V a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  DP_TARGET_AVX2 static DP_SIMD_OP V copysign(V mag, V sgn) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    return _mm256_or_pd(_mm256_andnot_pd(sign, mag), _mm256_and_pd(sign, sgn));
  }
  DP_TARGET_AVX2 static DP_SIMD_OP V round(V a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// Scalar1::pow2i on four lanes.
  DP_TARGET_AVX2 static DP_SIMD_OP V pow2i(V n) {
    const __m256i bits = _mm256_castpd_si256(_mm256_add_pd(n, _mm256_set1_pd(kPow2Bias)));
    return _mm256_castsi256_pd(_mm256_slli_epi64(bits, 52));
  }
  DP_TARGET_AVX2 static DP_SIMD_OP M cmp_ge(V a, V b) {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  }
  DP_TARGET_AVX2 static DP_SIMD_OP V blend(V a, V b, M mask) {
    return _mm256_blendv_pd(a, b, mask);
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
  DP_TARGET_AVX512 static DP_SIMD_OP V add(V a, V b) { return _mm512_add_pd(a, b); }
  DP_TARGET_AVX512 static DP_SIMD_OP V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  DP_TARGET_AVX512 static DP_SIMD_OP V div(V a, V b) { return _mm512_div_pd(a, b); }
  DP_TARGET_AVX512 static DP_SIMD_OP V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  /// 256-bit halves first, then the AVX2Lanes tree.
  DP_TARGET_AVX512 static DP_SIMD_OP double reduce_add(V a) {
    return AVX2Lanes::reduce_add(_mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xf, a, 0),
                                               _mm512_maskz_extractf64x4_pd(0xf, a, 1)));
  }
  // The elementwise ops use the maskz forms of sqrt, min, roundscale and the
  // shift for the reduce_add reason above; the full mask computes every
  // lane.
  using M = __mmask8;
  DP_TARGET_AVX512 static DP_SIMD_OP V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  DP_TARGET_AVX512 static DP_SIMD_OP V sqrt(V a) {
    return _mm512_maskz_sqrt_pd(static_cast<M>(0xff), a);
  }
  DP_TARGET_AVX512 static DP_SIMD_OP V fnmadd(V a, V b, V c) { return _mm512_fnmadd_pd(a, b, c); }
  DP_TARGET_AVX512 static DP_SIMD_OP V fmsub(V a, V b, V c) { return _mm512_fmsub_pd(a, b, c); }
  DP_TARGET_AVX512 static DP_SIMD_OP V min(V a, V b) {
    return _mm512_maskz_min_pd(static_cast<M>(0xff), a, b);
  }
  DP_TARGET_AVX512 static DP_SIMD_OP V abs(V a) {
    return _mm512_andnot_pd(_mm512_set1_pd(-0.0), a);
  }
  DP_TARGET_AVX512 static DP_SIMD_OP V copysign(V mag, V sgn) {
    const __m512d sign = _mm512_set1_pd(-0.0);
    return _mm512_or_pd(_mm512_andnot_pd(sign, mag), _mm512_and_pd(sign, sgn));
  }
  DP_TARGET_AVX512 static DP_SIMD_OP V round(V a) {
    return _mm512_maskz_roundscale_pd(static_cast<M>(0xff), a,
                                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// Scalar1::pow2i on eight lanes.
  DP_TARGET_AVX512 static DP_SIMD_OP V pow2i(V n) {
    const __m512i bits = _mm512_castpd_si512(_mm512_add_pd(n, _mm512_set1_pd(kPow2Bias)));
    return _mm512_castsi512_pd(_mm512_maskz_slli_epi64(static_cast<M>(0xff), bits, 52));
  }
  DP_TARGET_AVX512 static DP_SIMD_OP M cmp_ge(V a, V b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  DP_TARGET_AVX512 static DP_SIMD_OP V blend(V a, V b, M mask) {
    return _mm512_mask_blend_pd(mask, a, b);
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

/// One slot of a fused kernel's run, located in its table: the interval's
/// coefficient blocks, the local coordinate t of s in that interval, and the
/// weights r of the contraction (the slot's env-matrix row R~, or a unit
/// weight in r[0]).
template <class C>
struct FusedSlot {
  const C* coef;
  TableReal<C> t;
  TableReal<C> r[4];
};

/// Pass 1 of the fused kernels (paper Sec 3.4.1, Fig 4 (c)) over a run of
/// located slots: a[c * m + b] += r_k[c] * g_b(s_k), slot by slot, for the
/// four env columns c (a is 4 x m, row-major) — or for the one unit-weight
/// column (a is 1 x m). The walked row and a channel chunk of A stay in
/// registers; G is never stored.
template <class C>
using FusedPass1Fn = void (*)(const FusedSlot<C>* slots, std::size_t count, std::size_t m,
                              TableReal<C>* a);
/// Pass 2 over a run of located slots: per slot k, grad[4k + c] =
/// <g_a[c], g(s_k)> for the four columns, plus the dE/ds table term
/// <sum_c r_k[c] g_a[c], g'(s_k)> folded into c = 0; accumulated in
/// TableReal<C> and widened to double. With the unit-weight column only
/// the dE/ds term is formed: grad[4k] = <g_a[0], g'(s_k)>, the other three
/// are written as zeros.
template <class C>
using FusedPass2Fn = void (*)(const FusedSlot<C>* slots, std::size_t count, std::size_t m,
                              const TableReal<C>* g_a, double* grad);
/// `unit_weight` picks the one-column kernels (the se_r descriptor).
template <class C>
FusedPass1Fn<C> pick_fused_pass1(Level lvl, bool unit_weight);
template <class C>
FusedPass2Fn<C> pick_fused_pass2(Level lvl, bool unit_weight);

/// FLOPs per slot and channel of the two four-column passes, counted from
/// their bodies (an fma is 2): pass 1 is the quintic (5 fmas) and the four
/// contraction fmas, 18; pass 2 is the quintic (10), the four value fmas
/// (8), the weight w (a mul and three fmas, 7), quintic_deriv (four muls
/// and four fmas, 12) and the dE/ds fma (2), 39.
inline constexpr double kFusedPassFlops = 18.0 + 39.0;

/// D = A<^T A and its adjoint (dp/descriptor.hpp has the algebra).
using DescriptorForwardFn = void (*)(const double* a_mat, std::size_t m, std::size_t m_sub,
                                     double* d_flat);
DescriptorForwardFn pick_descriptor_forward(Level lvl);
using DescriptorBackwardFn = void (*)(const double* a_mat, const double* g_d, std::size_t m,
                                      std::size_t m_sub, double* g_a);
DescriptorBackwardFn pick_descriptor_backward(Level lvl);

/// The environment-matrix rows (paper Eq. 1) of n slots from their
/// displacements d = diff[3k .. 3k + 3) = r_j - r_i, |d| > 0, with the
/// switch s(r) of dp/switch_fn.hpp: rmat[4k + c] = s (1, d / r), and, when
/// deriv is not null, deriv[12k + 3c + l] = d rmat[4k + c] / d d_l (the
/// operator's `descrpt_a_deriv`). One operation sequence at every level and
/// position: r^2 = fma(z, z, fma(x, x, y y)), then the fmas the switch and
/// the rows spell out, so the rows are bitwise identical across levels.
using EnvRowsFn = void (*)(const double* diff, std::size_t n, double rcut_smth, double rcut,
                           double* rmat, double* deriv);
EnvRowsFn pick_env_rows(Level lvl);

/// s(r) and ds/dr of the switch at any r — the width-1 instance of the
/// switch inside EnvRowsFn (s = ds/dr = 0 for r <= 0 and r >= rcut).
void env_switch(double r, double rcut_smth, double rcut, double* s, double* ds_dr);

/// Most slots per pair_gradients call (its SoA staging lives on the stack).
inline constexpr int kPairChunk = 64;
/// f[3k + l] = sum_c g_rows[4k + c] * d_rows[12k + 3c + l] for k < cnt <=
/// kPairChunk: the prod-force pair gradient dE/d(r_j - r_i) of each slot.
using PairGradientsFn = void (*)(const double* g_rows, const double* d_rows, int cnt,
                                 double* f);
PairGradientsFn pick_pair_gradients(Level lvl);
/// The same f with each slot's 12 derivative entries rebuilt in registers
/// from its displacement (d_x, d_y, d_z) = (d[k], d[cnt + k], d[2 cnt + k])
/// — three streams, not rows — by EnvRowsFn's sequence, instead of read:
/// bitwise PairGradientsFn over EnvRowsFn's deriv rows.
using PairGradientsDiffFn = void (*)(const double* g_rows, const double* d, int cnt,
                                     double rcut_smth, double rcut, double* f);
PairGradientsDiffFn pick_pair_gradients_diff(Level lvl);

/// y[i] = tanh(x[i]) for i < n; y may alias x. The fitting net's
/// activation (paper Sec 3.5.3 tabulates it instead): a Cephes rational
/// below |x| = 0.625, 1 - 2 / (e^{2|x|} + 1) above, within 2 ulp of the
/// correctly rounded tanh. Exact at +-0 (sign kept), +-1 from |x| = 30 on
/// (and at +-inf); NaN stays NaN. Bitwise identical at every level, for
/// every n and every element position.
using TanhFn = void (*)(const double* x, double* y, std::size_t n);
TanhFn pick_tanh(Level lvl);

/// The FMA roof a compute-bound kernel is read against: independent fma
/// chains on one core for `iters` steps. Returns the FLOPs it ran and
/// leaves a checksum in *sink.
using FmaProbeFn = double (*)(std::size_t iters, double* sink);
FmaProbeFn pick_fma_probe(Level lvl);

}  // namespace dp::simd
