#include "md/box.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace dp::md {
namespace {

TEST(Box, WrapMapsIntoBox) {
  Box box(10, 20, 30);
  Vec3 r = box.wrap({-1.0, 25.0, 65.0});
  EXPECT_NEAR(r.x, 9.0, 1e-12);
  EXPECT_NEAR(r.y, 5.0, 1e-12);
  EXPECT_NEAR(r.z, 5.0, 1e-12);
}

TEST(Box, WrapIsIdempotent) {
  Box box(7.5, 8.5, 9.5);
  Vec3 r{-13.2, 100.7, 4.2};
  Vec3 once = box.wrap(r);
  Vec3 twice = box.wrap(once);
  EXPECT_NEAR(once.x, twice.x, 1e-12);
  EXPECT_NEAR(once.y, twice.y, 1e-12);
  EXPECT_NEAR(once.z, twice.z, 1e-12);
}

TEST(Box, WrapBoundaryEdge) {
  Box box(10, 10, 10);
  Vec3 r = box.wrap({10.0, 0.0, 9.9999999999});
  EXPECT_GE(r.x, 0.0);
  EXPECT_LT(r.x, 10.0);
  EXPECT_LT(r.z, 10.0);
}

TEST(Box, MinImagePicksNearestCopy) {
  Box box(10, 10, 10);
  Vec3 d = box.min_image({9.0, -9.0, 0.5});
  EXPECT_NEAR(d.x, -1.0, 1e-12);
  EXPECT_NEAR(d.y, 1.0, 1e-12);
  EXPECT_NEAR(d.z, 0.5, 1e-12);
}

TEST(Box, MinImageBoundedByHalfBox) {
  Box box(6, 8, 10);
  for (double v : {-17.0, -3.2, 0.0, 2.9, 4.1, 25.0}) {
    Vec3 d = box.min_image({v, v, v});
    EXPECT_LE(std::abs(d.x), 3.0 + 1e-12);
    EXPECT_LE(std::abs(d.y), 4.0 + 1e-12);
    EXPECT_LE(std::abs(d.z), 5.0 + 1e-12);
  }
}

TEST(Box, MinImageRoundsLikeStdRound) {
  // min_image rounds without libm; it must reproduce x - round(x * inv) * L
  // bit for bit, at every halfway case and at the edges of the doubles.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double max = std::numeric_limits<double>::max();
  std::vector<double> xs = {0.5, 1.5, 2.5, 0.49999999999999994, 0.0, 0.3, 7.75};
  for (double x : {0x1p52, 0x1p53 - 1, 0x1p52 - 0.5, 1e300, max}) xs.push_back(x);
  for (double x : {sub, 4 * sub, 0x1p-1022, inf, nan}) xs.push_back(x);
  for (std::size_t k = 0, n = xs.size(); k < n; ++k) xs.push_back(-xs[k]);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (double l : {1.0, 3.7, 10.0}) {
    const Box box(l, 2 * l, 0.5 * l);
    const Vec3 inv{1.0 / l, 1.0 / (2 * l), 1.0 / (0.5 * l)};
    const Vec3 len{l, 2 * l, 0.5 * l};
    for (double x : xs) {
      // Scale by L so the rounding argument is x itself when L = 1.
      const Vec3 d{x * l, x, x};
      const Vec3 got = box.min_image(d);
      for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(bits(got[c]), bits(d[c] - std::round(d[c] * inv[c]) * len[c]))
            << "x=" << x << " L=" << len[c];
    }
  }
  for (double x : xs) {
    if (std::isnan(x))
      EXPECT_TRUE(std::isnan(Box::round_half_away(x)));
    else
      EXPECT_EQ(bits(Box::round_half_away(x)), bits(std::round(x))) << x;
  }
  // Random bit patterns cover every exponent (NaNs only need to stay NaN);
  // random magnitudes up to 2^54 and exact halves cover the fractions.
  Rng rng(17);
  for (int k = 0; k < 200000; ++k) {
    const double x = std::bit_cast<double>(rng.next_u64());
    if (std::isnan(x))
      EXPECT_TRUE(std::isnan(Box::round_half_away(x)));
    else
      ASSERT_EQ(bits(Box::round_half_away(x)), bits(std::round(x))) << x;
    const double y =
        std::ldexp(rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform_index(58)) - 4);
    ASSERT_EQ(bits(Box::round_half_away(y)), bits(std::round(y))) << y;
    const double h = std::floor(rng.uniform(-1e6, 1e6)) + 0.5;
    ASSERT_EQ(bits(Box::round_half_away(h)), bits(std::round(h))) << h;
  }
}

TEST(Box, Volume) {
  EXPECT_DOUBLE_EQ(Box(2, 3, 4).volume(), 24.0);
}

TEST(Box, AccommodatesCutoff) {
  Box box(10, 10, 10);
  EXPECT_TRUE(box.accommodates_cutoff(4.9));
  EXPECT_FALSE(box.accommodates_cutoff(5.0));
}

TEST(Box, RejectsNonPositiveLengths) {
  EXPECT_THROW(Box(0, 1, 1), Error);
  EXPECT_THROW(Box(1, -2, 1), Error);
}

TEST(Box, PairDistanceConsistentUnderWrap) {
  // The min-image distance between two atoms must not depend on which
  // periodic copy of each atom is stored.
  Box box(12, 12, 12);
  Vec3 a{1.0, 2.0, 3.0}, b{11.5, 0.5, 9.0};
  const double d0 = norm(box.min_image(b - a));
  Vec3 a2 = a + Vec3{12, -24, 36};
  Vec3 b2 = b + Vec3{-12, 12, 0};
  const double d1 = norm(box.min_image(box.wrap(b2) - box.wrap(a2)));
  EXPECT_NEAR(d0, d1, 1e-10);
}

}  // namespace
}  // namespace dp::md
