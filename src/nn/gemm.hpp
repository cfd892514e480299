// Small dense linear algebra kernels.
//
// The matrices in the DP pipeline are small-by-skinny (N_m x 4, N_m x M,
// hidden widths <= 240), so a register-blocked loop nest beats calling out to
// a full BLAS for this workload and keeps the library dependency-free.
//
// gemm/gemm_acc and gemm_nt run register-blocked tiles dispatched on
// simd::active() (gemm_kernels.inc has the numerical contract): every
// element of a gemm_acc product is one fma chain in ascending k, bitwise
// the same at every SIMD level and for every row blocking; gemm_nt's dot
// products are bitwise reproducible at a fixed level and independent of
// the row blocking.
#pragma once

#include <cstddef>

namespace dp::nn {

/// C[m x n] = A[m x k] * B[k x n]   (row-major, C overwritten)
void gemm(const double* a, const double* b, double* c,
          std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] += A[m x k] * B[k x n]
void gemm_acc(const double* a, const double* b, double* c,
              std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] = A^T[k x m] * B[k x n]  — A stored as k x m row-major.
/// This is the R~^T G contraction shape: k = N_m rows are reduced.
void gemm_tn(const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] += A^T[k x m] * B[k x n] — accumulating variant (per-type blocks
/// of the environment matrix are contracted into one A matrix).
void gemm_tn_acc(const double* a, const double* b, double* c,
                 std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] = A[m x k] * B^T[n x k]  — B stored as n x k row-major. With
/// B = W (in x out) and A = dE/du rows this is the reverse-mode product
/// dE/dx = dE/du W^T of a dense layer.
void gemm_nt(const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n);

/// y[n] = x[k] * W[k x n] + b[n]   (b may be nullptr) — the one-row gemm_acc.
void affine(const double* x, const double* w, const double* bias, double* y,
            std::size_t k, std::size_t n);

}  // namespace dp::nn
