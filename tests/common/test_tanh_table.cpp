#include "common/tanh_table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/simd.hpp"

namespace dp {
namespace {

TEST(TanhTable, DefaultAccuracyBelowPaperBound) {
  // The paper (Sec 3.5.3) reports ~1e-7 error for the tabulated tanh. The
  // scheme's error floor is the saturation jump 1 - tanh(8) = 2.25e-7 at the
  // x_max = 8 cutoff the paper prescribes; the interpolation error proper is
  // well below it.
  EXPECT_LT(default_tanh_table().measured_max_error(), 2.5e-7);
}

TEST(TanhTable, InterpolationErrorWellBelowSaturationFloor) {
  // Probe strictly inside [0, 7.5]: pure interpolation error, no cutoff.
  const auto& t = default_tanh_table();
  double max_err = 0.0;
  for (int i = 0; i <= 10000; ++i) {
    const double x = 7.5 * i / 10000.0;
    max_err = std::max(max_err, std::fabs(t.eval(x) - std::tanh(x)));
  }
  EXPECT_LT(max_err, 2.0e-8);
}

TEST(TanhTable, OddSymmetry) {
  const auto& t = default_tanh_table();
  for (double x : {0.1, 0.7, 1.9, 3.3, 7.99}) {
    EXPECT_DOUBLE_EQ(t.eval(-x), -t.eval(x));
  }
}

TEST(TanhTable, SaturatesBeyondXMax) {
  const auto& t = default_tanh_table();
  EXPECT_DOUBLE_EQ(t.eval(8.0), 1.0);
  EXPECT_DOUBLE_EQ(t.eval(100.0), 1.0);
  EXPECT_DOUBLE_EQ(t.eval(-8.0), -1.0);
  EXPECT_DOUBLE_EQ(t.eval(-1e9), -1.0);
}

TEST(TanhTable, ZeroIsExact) {
  EXPECT_DOUBLE_EQ(default_tanh_table().eval(0.0), 0.0);
}

TEST(TanhTable, ErrorShrinksWithMoreIntervals) {
  const TanhTable coarse(8.0, 64);
  const TanhTable mid(8.0, 256);
  const TanhTable fine(8.0, 2048);
  const double ec = coarse.measured_max_error();
  const double em = mid.measured_max_error();
  const double ef = fine.measured_max_error();
  EXPECT_GT(ec, em);
  EXPECT_GT(em, ef);
  // Quadratic interpolation converges as h^3: 4x finer -> ~64x smaller.
  EXPECT_LT(em, ec / 30.0);
}

TEST(TanhTable, DerivativeMatchesSech2) {
  const auto& t = default_tanh_table();
  for (double x : {-3.0, -0.5, 0.0, 0.4, 1.5, 6.0}) {
    const double exact = 1.0 - std::tanh(x) * std::tanh(x);
    EXPECT_NEAR(t.deriv(x), exact, 1e-6);
  }
}

TEST(TanhTable, BatchMatchesScalar) {
  // At the dispatched (native) level the batch may use FMA, so agreement is
  // EXPECT_DOUBLE_EQ (4 ulp); with DP_SIMD forced scalar the batch is the
  // plain eval loop and must match exactly. tests/tab/test_simd_parity.cpp
  // sweeps every level explicitly.
  const auto& t = default_tanh_table();
  std::vector<double> x, y;
  for (int i = -50; i <= 50; ++i) x.push_back(0.21 * i);
  y.resize(x.size());
  t.eval_batch(x.data(), y.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], t.eval(x[i]));

  const simd::Level prev = simd::active();
  simd::force(simd::Level::Scalar);
  t.eval_batch(x.data(), y.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], t.eval(x[i]));
  simd::force(prev);
}

TEST(TanhTable, EvalMatchesBatchBitwiseAtEveryLevel) {
  // eval and every level of eval_batch run the same explicit fmas, so they
  // agree bit for bit whatever contraction the build applies to plain
  // arithmetic. Dense sweep over [-9, 9] (past x_max) with odd n: vector
  // lanes and the scalar tail.
  const TanhTable& t = default_tanh_table();
  std::vector<double> x;
  for (int i = -450'000; i <= 450'000; ++i) x.push_back(i * 2e-5);
  std::vector<double> y(x.size());
  std::vector<simd::Level> levels{simd::Level::Scalar};
  if (simd::max_supported() >= simd::Level::AVX2) levels.push_back(simd::Level::AVX2);
  if (simd::max_supported() >= simd::Level::AVX512) levels.push_back(simd::Level::AVX512);
  const simd::Level prev = simd::active();
  for (const simd::Level lvl : levels) {
    simd::force(lvl);
    t.eval_batch(x.data(), y.data(), x.size());
    std::size_t differ = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double e = t.eval(x[i]);
      differ += std::memcmp(&e, &y[i], sizeof(double)) != 0;
    }
    EXPECT_EQ(differ, 0u) << simd::name(lvl);
  }
  simd::force(prev);
}

TEST(TanhTable, NanPassesThroughAtEveryLevel) {
  // A NaN pre-activation (a blown-up trajectory) must come out NaN, never
  // index the table: in a vector lane, in the width-1 tail, or in eval.
  const TanhTable& t = default_tanh_table();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(t.eval(nan)));
  EXPECT_TRUE(std::isnan(t.eval(-nan)));
  std::vector<double> x(11, 0.5);
  const simd::Level prev = simd::active();
  for (const simd::Level lvl : {simd::Level::Scalar, simd::Level::AVX2, simd::Level::AVX512}) {
    simd::force(lvl);  // clamped to what this host supports
    for (std::size_t pos = 0; pos < x.size(); ++pos) {
      x[pos] = pos % 2 ? -nan : nan;
      std::vector<double> y(x.size());
      t.eval_batch(x.data(), y.data(), x.size());
      EXPECT_TRUE(std::isnan(y[pos])) << simd::name(simd::active()) << " pos " << pos;
      x[pos] = 0.5;
    }
  }
  simd::force(prev);
}

TEST(TanhTable, UpperBoundaryNeverReadsPastTable) {
  // Regression: inv_h_ = intervals / x_max is rounded, so for non-power-of-
  // two (x_max, intervals) pairs an input just below x_max could round the
  // segment index up to k == intervals and read past coef_ (caught by ASan
  // before the clamp; e.g. x_max = 6.7 with 1000 intervals hits it). The
  // sweep deliberately mixes triggering and non-triggering grids.
  for (double x_max : {7.3, 5.1, 6.7, 3.9, 8.0, 2.5, 9.13, 4.77, 1.3, 6.1}) {
    for (std::size_t intervals : {1000u, 773u, 1500u, 977u, 1024u, 600u, 333u}) {
      const TanhTable t(x_max, intervals);
      for (double x : {std::nextafter(x_max, 0.0), -std::nextafter(x_max, 0.0),
                       x_max * (1.0 - 1e-15), x_max, std::nextafter(x_max, 2.0 * x_max)}) {
        const double y = t.eval(x);
        EXPECT_TRUE(std::isfinite(y)) << "x_max " << x_max << " n " << intervals;
        if (std::fabs(x) >= x_max) {
          EXPECT_DOUBLE_EQ(y, x < 0.0 ? -1.0 : 1.0);
        } else {
          // The clamped edge segment still interpolates tanh at the boundary.
          EXPECT_NEAR(y, std::tanh(x), 1e-3) << "x_max " << x_max << " n " << intervals;
        }
      }
    }
  }
}

TEST(TanhTable, ContinuousAcrossNodes) {
  const TanhTable t(8.0, 128);
  const double h = 8.0 / 128;
  for (int k = 1; k < 128; ++k) {
    const double x = k * h;
    const double below = t.eval(x - 1e-12);
    const double above = t.eval(x + 1e-12);
    EXPECT_NEAR(below, above, 1e-9);
  }
}

}  // namespace
}  // namespace dp
