#include "nn/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/simd.hpp"

namespace dp::nn {

namespace {

// The dispatched tiles: one templated body (gemm_kernels.inc), included once
// per target attribute, instantiated with that level's lane traits.
namespace scalar_level {
#define DP_GEMM_TARGET
#include "nn/gemm_kernels.inc"
#undef DP_GEMM_TARGET
}  // namespace scalar_level

#if DP_SIMD_X86
namespace avx2_level {
#define DP_GEMM_TARGET DP_TARGET_AVX2
#include "nn/gemm_kernels.inc"
#undef DP_GEMM_TARGET
}  // namespace avx2_level

namespace avx512_level {
#define DP_GEMM_TARGET DP_TARGET_AVX512
#include "nn/gemm_kernels.inc"
#undef DP_GEMM_TARGET
}  // namespace avx512_level
#endif  // DP_SIMD_X86

using GemmFn = void (*)(const double*, const double*, double*, std::size_t, std::size_t,
                        std::size_t);

GemmFn pick_acc(simd::Level lvl) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512) return avx512_level::gemm_acc_body<simd::AVX512Lanes>;
  if (lvl == simd::Level::AVX2) return avx2_level::gemm_acc_body<simd::AVX2Lanes>;
#else
  (void)lvl;
#endif
  return scalar_level::gemm_acc_body<simd::ScalarLanes>;
}

GemmFn pick_nt(simd::Level lvl) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512) return avx512_level::gemm_nt_body<simd::AVX512Lanes>;
  if (lvl == simd::Level::AVX2) return avx2_level::gemm_nt_body<simd::AVX2Lanes>;
#else
  (void)lvl;
#endif
  return scalar_level::gemm_nt_body<simd::ScalarLanes>;
}

}  // namespace

// A zero-row/column product is a legal no-op (the compact env layout feeds
// an empty batch for an atom with no neighbors), but its output pointer may
// be null — keep it away from memset's nonnull contract and the kernels.

void gemm(const double* a, const double* b, double* c,
          std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  std::memset(c, 0, m * n * sizeof(double));
  gemm_acc(a, b, c, m, k, n);
}

void gemm_acc(const double* a, const double* b, double* c,
              std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  pick_acc(simd::active())(a, b, c, m, k, n);
}

void gemm_tn_acc(const double* a, const double* b, double* c,
                 std::size_t m, std::size_t k, std::size_t n) {
  // C += A^T B accumulated as a sum over k rank-1 updates, each touching one
  // row of A and one row of B — exactly the outer-product form the fused
  // kernel of the paper uses (Fig 4 (c)).
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a + p * m;
    const double* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      double* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_tn(const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  std::memset(c, 0, m * n * sizeof(double));
  gemm_tn_acc(a, b, c, m, k, n);
}

void gemm_nt(const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  pick_nt(simd::active())(a, b, c, m, k, n);
}

void affine(const double* x, const double* w, const double* bias, double* y,
            std::size_t k, std::size_t n) {
  if (bias != nullptr) {
    std::memcpy(y, bias, n * sizeof(double));
  } else {
    std::memset(y, 0, n * sizeof(double));
  }
  gemm_acc(x, w, y, 1, k, n);
}

}  // namespace dp::nn
