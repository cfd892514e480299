#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace dp::nn {
namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// O(mkn) reference with no blocking tricks.
std::vector<double> naive_gemm(const std::vector<double>& a, const std::vector<double>& b,
                               std::size_t m, std::size_t k, std::size_t n) {
  std::vector<double> c(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = 0; p < k; ++p) c[i * n + j] += a[i * k + p] * b[p * n + j];
  return c;
}

TEST(Gemm, MatchesNaive) {
  const std::size_t m = 13, k = 29, n = 17;
  auto a = random_vec(m * k, 1), b = random_vec(k * n, 2);
  auto want = naive_gemm(a, b, m, k, n);
  std::vector<double> c(m * n, 99.0);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i], 1e-12);
}

TEST(Gemm, AccumulateAddsToExisting) {
  const std::size_t m = 4, k = 6, n = 5;
  auto a = random_vec(m * k, 3), b = random_vec(k * n, 4);
  auto want = naive_gemm(a, b, m, k, n);
  std::vector<double> c(m * n, 1.0);
  gemm_acc(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i] + 1.0, 1e-12);
}

TEST(Gemm, TransposedAMatchesNaive) {
  // C = A^T B with A stored k x m.
  const std::size_t m = 4, k = 50, n = 16;
  auto at = random_vec(k * m, 5);  // k x m
  auto b = random_vec(k * n, 6);
  std::vector<double> want(m * n, 0.0);
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) want[i * n + j] += at[p * m + i] * b[p * n + j];
  std::vector<double> c(m * n);
  gemm_tn(at.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i], 1e-12);
}

TEST(Gemm, TransposedBMatchesNaive) {
  const std::size_t m = 7, k = 9, n = 11;
  auto a = random_vec(m * k, 7);
  auto bt = random_vec(n * k, 8);  // n x k
  std::vector<double> want(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = 0; p < k; ++p) want[i * n + j] += a[i * k + p] * bt[j * k + p];
  std::vector<double> c(m * n);
  gemm_nt(a.data(), bt.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i], 1e-12);
}

TEST(Affine, MatchesManual) {
  const std::size_t k = 5, n = 3;
  auto x = random_vec(k, 9), w = random_vec(k * n, 10), b = random_vec(n, 11);
  std::vector<double> y(n);
  affine(x.data(), w.data(), b.data(), y.data(), k, n);
  for (std::size_t j = 0; j < n; ++j) {
    double want = b[j];
    for (std::size_t p = 0; p < k; ++p) want += x[p] * w[p * n + j];
    EXPECT_NEAR(y[j], want, 1e-12);
  }
}

TEST(Affine, NullBiasMeansZero) {
  const std::size_t k = 4, n = 2;
  auto x = random_vec(k, 12), w = random_vec(k * n, 13);
  std::vector<double> y(n, 5.0);
  affine(x.data(), w.data(), nullptr, y.data(), k, n);
  for (std::size_t j = 0; j < n; ++j) {
    double want = 0.0;
    for (std::size_t p = 0; p < k; ++p) want += x[p] * w[p * n + j];
    EXPECT_NEAR(y[j], want, 1e-12);
  }
}

TEST(GemvT, IsTransposeOfAffine) {
  // The one-row gemm_nt computes g W^T; check <affine(x), g> == <x, g W^T>
  // (the adjoint the dense layers' reverse mode relies on).
  const std::size_t k = 8, n = 6;
  auto x = random_vec(k, 14), w = random_vec(k * n, 15), g = random_vec(n, 16);
  std::vector<double> y(n);
  affine(x.data(), w.data(), nullptr, y.data(), k, n);
  std::vector<double> gt(k);
  gemm_nt(g.data(), w.data(), gt.data(), 1, n, k);
  double lhs = 0, rhs = 0;
  for (std::size_t j = 0; j < n; ++j) lhs += y[j] * g[j];
  for (std::size_t p = 0; p < k; ++p) rhs += x[p] * gt[p];
  EXPECT_NEAR(lhs, rhs, 1e-12);
}

TEST(Gemm, DegenerateSizes) {
  // 1x1 everything.
  double a = 2.0, b = 3.0, c = 0.0;
  gemm(&a, &b, &c, 1, 1, 1);
  EXPECT_DOUBLE_EQ(c, 6.0);
}

// ---- Per-level contract of the dispatched tiles (gemm_kernels.inc) --------

class LevelGuard {
 public:
  explicit LevelGuard(simd::Level lvl) : prev_(simd::active()) { simd::force(lvl); }
  ~LevelGuard() { simd::force(prev_); }

 private:
  simd::Level prev_;
};

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> v{simd::Level::Scalar};
  const int cap = static_cast<int>(simd::max_supported());
  if (cap >= static_cast<int>(simd::Level::AVX2)) v.push_back(simd::Level::AVX2);
  if (cap >= static_cast<int>(simd::Level::AVX512)) v.push_back(simd::Level::AVX512);
  return v;
}

struct Shape {
  std::size_t m, k, n;
};

/// Shapes across every boundary of the tiles: rows around the 8- and 4-row
/// register tiles and the 64-row chunk, reductions around the 64-row k-slab,
/// widths around the 3-vector panel, its vector tails and scalar columns,
/// the paper copper fitting layers at 32 rows, and an empty reduction.
std::vector<Shape> level_shapes() {
  std::vector<Shape> v{{1, 1, 1},  {3, 7, 5},  {9, 37, 29},  {17, 240, 240},
                       {70, 12, 64}, {5, 0, 9}, {6, 19, 33}, {2, 128, 4}};
  for (const std::size_t m : {7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65}) {
    v.push_back({m, 65, 25});
    v.push_back({m, 130, 23});
  }
  for (const std::size_t k : {63, 64, 65, 130, 2048}) {
    v.push_back({9, k, 24});
    v.push_back({33, k, 240});
  }
  for (const std::size_t n : {1, 16, 23, 24, 25, 240, 2048}) {
    v.push_back({17, 64, n});
    v.push_back({8, 130, n});
  }
  for (const std::size_t n : {240, 1}) v.push_back({32, 2048, n});
  v.push_back({32, 240, 240});
  return v;
}

TEST(GemmLevels, AccBitwiseAcrossLevelsAndRowBlockings) {
  // Every C element is one fma chain in ascending k: the same bits at every
  // level, and the same bits whether its row is multiplied alone or in a
  // block.
  for (const Shape s : level_shapes()) {
    const auto a = random_vec(s.m * s.k + 1, 21), b = random_vec(s.k * s.n + 1, 22);
    const auto c0 = random_vec(s.m * s.n, 23);
    std::vector<double> ref = c0;
    {
      LevelGuard guard(simd::Level::Scalar);
      gemm_acc(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    }
    for (const simd::Level lvl : supported_levels()) {
      LevelGuard guard(lvl);
      std::vector<double> full = c0, rows = c0;
      gemm_acc(a.data(), b.data(), full.data(), s.m, s.k, s.n);
      for (std::size_t i = 0; i < s.m; ++i)
        gemm_acc(a.data() + i * s.k, b.data(), rows.data() + i * s.n, 1, s.k, s.n);
      EXPECT_EQ(0, std::memcmp(full.data(), ref.data(), ref.size() * sizeof(double)))
          << simd::name(lvl) << " m=" << s.m << " k=" << s.k << " n=" << s.n;
      EXPECT_EQ(0, std::memcmp(rows.data(), ref.data(), ref.size() * sizeof(double)))
          << simd::name(lvl) << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  }
}

TEST(GemmLevels, AccIsOneAscendingFmaChainPerElement) {
  // The contract itself, against an oracle that knows nothing of tiles,
  // slabs or chunks: c_ij = fma(a_i,k-1 b_k-1,j, ... fma(a_i0 b_0j, c_ij)).
  // A k-slab walk that restarted a chain and added it to C would still be
  // bitwise across levels and blockings, but not equal to this.
  for (const Shape s : level_shapes()) {
    const auto a = random_vec(s.m * s.k + 1, 26), b = random_vec(s.k * s.n + 1, 27);
    const auto c0 = random_vec(s.m * s.n, 28);
    std::vector<double> oracle = c0;
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j)
        for (std::size_t p = 0; p < s.k; ++p)
          oracle[i * s.n + j] = std::fma(a[i * s.k + p], b[p * s.n + j], oracle[i * s.n + j]);
    for (const simd::Level lvl : supported_levels()) {
      LevelGuard guard(lvl);
      std::vector<double> c = c0;
      gemm_acc(a.data(), b.data(), c.data(), s.m, s.k, s.n);
      EXPECT_EQ(0, std::memcmp(c.data(), oracle.data(), c.size() * sizeof(double)))
          << simd::name(lvl) << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  }
}

TEST(GemmLevels, NtReproducibleAndWithinBoundOfScalar) {
  // Dot products: bitwise independent of the row blocking at a fixed level;
  // across levels they differ only by the lane reassociation, bounded by
  // |c_level - c_scalar| <= 2 k eps sum_p |a_p b_p| (two k-term dot-product
  // error bounds).
  for (const Shape s : level_shapes()) {
    const auto a = random_vec(s.m * s.k + 1, 24), b = random_vec(s.n * s.k + 1, 25);
    std::vector<double> ref(s.m * s.n);
    {
      LevelGuard guard(simd::Level::Scalar);
      gemm_nt(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    }
    for (const simd::Level lvl : supported_levels()) {
      LevelGuard guard(lvl);
      std::vector<double> full(s.m * s.n), rows(s.m * s.n);
      gemm_nt(a.data(), b.data(), full.data(), s.m, s.k, s.n);
      for (std::size_t i = 0; i < s.m; ++i)
        gemm_nt(a.data() + i * s.k, b.data(), rows.data() + i * s.n, 1, s.k, s.n);
      EXPECT_EQ(0, std::memcmp(rows.data(), full.data(), full.size() * sizeof(double)))
          << simd::name(lvl) << " m=" << s.m << " k=" << s.k << " n=" << s.n;
      for (std::size_t i = 0; i < s.m; ++i) {
        for (std::size_t j = 0; j < s.n; ++j) {
          double mag = 0.0;
          for (std::size_t p = 0; p < s.k; ++p) mag += std::abs(a[i * s.k + p] * b[j * s.k + p]);
          const double bound = 2.0 * static_cast<double>(s.k) * DBL_EPSILON * mag;
          EXPECT_LE(std::abs(full[i * s.n + j] - ref[i * s.n + j]), bound)
              << simd::name(lvl) << " (" << i << "," << j << ") k=" << s.k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dp::nn
