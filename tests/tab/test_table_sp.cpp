#include "tab/table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace dp::tab {
namespace {

nn::EmbeddingNet make_net(std::uint64_t seed) {
  nn::EmbeddingNet net({8, 16, 32});
  Rng rng(seed);
  net.init_random(rng);
  return net;
}

// The --health extrapolation-rate watchdog reads per-table counters; the
// reduced-precision tables must report the same events as the double table
// they were truncated from, else the mixed path runs blind.
TEST(TabulatedEmbeddingSP, ExtrapolationCountMatchesDoubleTable) {
  auto net = make_net(11);
  TabulatedEmbedding ref(net, {0.2, 2.0, 0.01});
  TabulatedEmbeddingSP sp(ref);
  TabulatedEmbeddingHP hp(ref);
  ASSERT_EQ(ref.extrapolations(), 0u);
  ASSERT_EQ(sp.extrapolations(), 0u);
  ASSERT_EQ(hp.extrapolations(), 0u);

  // In-range, below-range, and above-range probes; the boundary values lo
  // and hi themselves must NOT count (they are clamped losslessly).
  const std::vector<double> probes = {0.5,  1.3,  1.999, 0.2, 2.0,   0.1,
                                      -3.0, 2.01, 7.5,   0.0, 1.9999};
  std::vector<double> g(ref.output_dim()), dg(ref.output_dim());
  std::vector<float> gf(ref.output_dim()), dgf(ref.output_dim());
  for (double s : probes) {
    ref.eval_with_deriv(s, g.data(), dg.data());
    sp.eval_with_deriv(static_cast<float>(s), gf.data(), dgf.data());
    hp.eval_with_deriv(static_cast<float>(s), gf.data(), dgf.data());
  }
  EXPECT_GT(ref.extrapolations(), 0u);
  EXPECT_EQ(sp.extrapolations(), ref.extrapolations());
  EXPECT_EQ(hp.extrapolations(), ref.extrapolations());

  // eval() (no derivative) goes through the same locate(); counts keep pace.
  for (double s : probes) {
    ref.eval(s, g.data());
    sp.eval(static_cast<float>(s), gf.data());
    hp.eval(static_cast<float>(s), gf.data());
  }
  EXPECT_EQ(sp.extrapolations(), ref.extrapolations());
  EXPECT_EQ(hp.extrapolations(), ref.extrapolations());
}

TEST(TabulatedEmbeddingSP, InRangeSweepNeverCounts) {
  auto net = make_net(12);
  TabulatedEmbedding ref(net, {0.0, 1.5, 0.01});
  TabulatedEmbeddingSP sp(ref);
  TabulatedEmbeddingHP hp(ref);
  std::vector<float> g(ref.output_dim());
  for (int k = 0; k <= 1000; ++k) {
    const float s = 1.5f * static_cast<float>(k) / 1000.0f;
    sp.eval(s, g.data());
    hp.eval(s, g.data());
  }
  EXPECT_EQ(sp.extrapolations(), 0u);
  EXPECT_EQ(hp.extrapolations(), 0u);
}

}  // namespace
}  // namespace dp::tab
