// The vectorized tanh of the fitting net's activation (simd::pick_tanh):
//   * within 2 ulp of tanhl rounded to double, on a dense sweep of
//     [-30, 30] and on random inputs at scales 1e-8 ... 400;
//   * exact at +-0 (sign kept), +-inf, NaN and past saturation;
//   * bitwise identical at every level this host reaches, in the width-1
//     tail, at every position in a block, and in place.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace dp {
namespace {

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> v{simd::Level::Scalar};
  const int cap = static_cast<int>(simd::max_supported());
  if (cap >= static_cast<int>(simd::Level::AVX2)) v.push_back(simd::Level::AVX2);
  if (cap >= static_cast<int>(simd::Level::AVX512)) v.push_back(simd::Level::AVX512);
  return v;
}

/// Distance in representable doubles (0 for equal values, +0 == -0).
std::int64_t ulp_diff(double a, double b) {
  if (a == b) return 0;
  auto key = [](double x) {
    std::int64_t i;
    std::memcpy(&i, &x, sizeof(i));
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

/// Half the dense sweep: x[kHalf + i] = 30 i / kHalf, a step of 3e-5.
constexpr std::size_t kHalf = 1'000'000;

std::vector<double> sweep_inputs() {
  std::vector<double> x;
  for (std::size_t i = 0; i <= 2 * kHalf; ++i)
    x.push_back(30.0 * (static_cast<double>(i) - kHalf) / kHalf);
  Rng rng(2022);
  for (const double scale : {1e-8, 1e-6, 1e-4, 1e-2, 0.625, 1.0, 10.0, 100.0, 400.0})
    for (int i = 0; i < 20'000; ++i) x.push_back(rng.uniform(-scale, scale));
  return x;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(TanhKernel, WithinTwoUlpOfTanhl) {
  const auto x = sweep_inputs();
  std::vector<double> y(x.size());
  simd::pick_tanh(simd::active())(x.data(), y.data(), x.size());
  std::int64_t worst = 0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref = static_cast<double>(std::tanh(static_cast<long double>(x[i])));
    const std::int64_t d = ulp_diff(y[i], ref);
    if (d > worst) {
      worst = d;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, 2) << "worst at x = " << worst_x;
}

TEST(TanhKernel, ExactAtZeroInfinityNanAndSaturation) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> x = {0.0,  -0.0,  kInf, -kInf, std::nan(""), 30.0, -30.0,
                                 31.0, 100.0, 1e10, -1e300, DBL_MAX, -DBL_MAX};
  for (const simd::Level lvl : supported_levels()) {
    std::vector<double> y(x.size());
    simd::pick_tanh(lvl)(x.data(), y.data(), x.size());
    EXPECT_EQ(y[0], 0.0);
    EXPECT_FALSE(std::signbit(y[0])) << simd::name(lvl);
    EXPECT_EQ(y[1], 0.0);
    EXPECT_TRUE(std::signbit(y[1])) << simd::name(lvl) << ": -0 must keep its sign";
    EXPECT_EQ(y[2], 1.0) << simd::name(lvl);
    EXPECT_EQ(y[3], -1.0) << simd::name(lvl);
    EXPECT_TRUE(std::isnan(y[4])) << simd::name(lvl);
    for (std::size_t i = 5; i < x.size(); ++i)
      EXPECT_EQ(y[i], x[i] < 0.0 ? -1.0 : 1.0) << simd::name(lvl) << " x = " << x[i];
  }
}

TEST(TanhKernel, BitwiseAcrossLevelsTailsAndPositions) {
  const auto x = sweep_inputs();
  std::vector<double> ref(x.size());
  simd::pick_tanh(simd::Level::Scalar)(x.data(), ref.data(), x.size());
  for (const simd::Level lvl : supported_levels()) {
    const simd::TanhFn tanh_fn = simd::pick_tanh(lvl);
    std::vector<double> y(x.size());
    tanh_fn(x.data(), y.data(), x.size());
    EXPECT_TRUE(same_bits(y, ref)) << simd::name(lvl);
    // In place, as forward_rows runs it.
    std::vector<double> inplace = x;
    tanh_fn(inplace.data(), inplace.data(), inplace.size());
    EXPECT_TRUE(same_bits(inplace, ref)) << simd::name(lvl) << " in place";
    // Every element lands in a vector lane, a width-1 tail or at any
    // offset in a block: runs of 1 ... 19 elements at offsets 0 ... 8 from
    // x = 0, from either side of the |x| = 0.625 switch and from x = 30.
    for (const std::size_t base : {kHalf, kHalf + 20'830, kHalf - 20'840, 2 * kHalf - 30}) {
      for (std::size_t off = 0; off < 9; ++off) {
        for (std::size_t n = 1; n < 20; ++n) {
          std::vector<double> part(n);
          tanh_fn(x.data() + base + off, part.data(), n);
          EXPECT_EQ(0, std::memcmp(part.data(), ref.data() + base + off, n * sizeof(double)))
              << simd::name(lvl) << " base=" << base << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dp
