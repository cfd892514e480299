#include "tab/table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "aos_reference.hpp"

namespace dp::tab {
namespace {

nn::EmbeddingNet make_net(std::uint64_t seed) {
  nn::EmbeddingNet net({8, 16, 32});
  Rng rng(seed);
  net.init_random(rng);
  return net;
}

TEST(TabulatedEmbedding, MatchesNetworkAtNodes) {
  auto net = make_net(1);
  TabulatedEmbedding table(net, {0.0, 2.0, 0.1});
  std::vector<double> g_tab(32), g_net(32);
  for (std::size_t i = 0; i <= table.n_intervals(); ++i) {
    const double s = 0.0 + table.interval() * static_cast<double>(i);
    table.eval(std::min(s, 2.0 - 1e-12), g_tab.data());
    net.eval(s, g_net.data());
    for (std::size_t ch = 0; ch < 32; ++ch) EXPECT_NEAR(g_tab[ch], g_net[ch], 1e-10);
  }
}

TEST(TabulatedEmbedding, AccuracyImprovesWithFinerInterval) {
  // The Fig 2 law: error vanishes as the interval shrinks.
  auto net = make_net(2);
  double prev_err = 1e300;
  for (double interval : {0.1, 0.01, 0.001}) {
    TabulatedEmbedding table(net, {0.0, 2.0, interval});
    double err = 0;
    std::vector<double> g_tab(32), g_net(32);
    for (int k = 0; k < 1000; ++k) {
      const double s = 2.0 * (k + 0.5) / 1000.0;
      table.eval(s, g_tab.data());
      net.eval(s, g_net.data());
      for (std::size_t ch = 0; ch < 32; ++ch)
        err = std::max(err, std::fabs(g_tab[ch] - g_net[ch]));
    }
    EXPECT_LT(err, prev_err / 100.0) << "interval " << interval;
    prev_err = err;
  }
}

TEST(TabulatedEmbedding, SizeGrowsInverselyWithInterval) {
  auto net = make_net(3);
  TabulatedEmbedding coarse(net, {0.0, 2.0, 0.1});
  TabulatedEmbedding fine(net, {0.0, 2.0, 0.01});
  EXPECT_NEAR(static_cast<double>(fine.bytes()) / static_cast<double>(coarse.bytes()), 10.0,
              0.5);
}

TEST(TabulatedEmbedding, DerivativeIsExactGradientOfTable) {
  // The tabulated dG/ds must differentiate the *table*, not the net — that
  // is what makes tabulated forces the exact gradient of tabulated energy.
  auto net = make_net(4);
  TabulatedEmbedding table(net, {0.0, 2.0, 0.05});
  std::vector<double> g(32), dg(32), gp(32), gm(32);
  const double h = 1e-7;
  for (double s : {0.111, 0.777, 1.499, 1.93}) {
    table.eval_with_deriv(s, g.data(), dg.data());
    table.eval(s + h, gp.data());
    table.eval(s - h, gm.data());
    for (std::size_t ch = 0; ch < 32; ++ch)
      EXPECT_NEAR(dg[ch], (gp[ch] - gm[ch]) / (2 * h), 1e-5);
  }
}

TEST(TabulatedEmbedding, C2AcrossNodes) {
  auto net = make_net(5);
  TabulatedEmbedding table(net, {0.0, 1.0, 0.1});
  std::vector<double> ga(32), gb(32), da(32), db(32);
  for (std::size_t k = 1; k < table.n_intervals(); ++k) {
    const double x = table.interval() * static_cast<double>(k);
    table.eval_with_deriv(x - 1e-10, ga.data(), da.data());
    table.eval_with_deriv(x + 1e-10, gb.data(), db.data());
    for (std::size_t ch = 0; ch < 32; ++ch) {
      EXPECT_NEAR(ga[ch], gb[ch], 1e-8);
      EXPECT_NEAR(da[ch], db[ch], 1e-6);
    }
  }
}

// The blocked walk against the channel-major (AoS) coefficients of the
// save() stream, evaluated independently (tests/tab/aos_reference.hpp).
TEST(TabulatedEmbedding, BlockedLayoutIdenticalToAoS) {
  auto net = make_net(6);
  TabulatedEmbedding table(net, {0.0, 2.0, 0.02});
  const table_ref::AosReference<double> aos(table, table);
  std::vector<double> g_a(32), g_b(32), d_a(32), d_b(32), g_v(32);
  Rng rng(7);
  for (int k = 0; k < 200; ++k) {
    const double s = rng.uniform(0.0, 2.0);
    aos(s, g_a.data(), d_a.data());
    table.eval(s, g_v.data());
    table.eval_with_deriv(s, g_b.data(), d_b.data());
    for (std::size_t ch = 0; ch < 32; ++ch) {
      EXPECT_EQ(g_a[ch], g_v[ch]);
      EXPECT_EQ(g_a[ch], g_b[ch]);
      EXPECT_EQ(d_a[ch], d_b[ch]);
    }
  }
}

TEST(TabulatedEmbedding, BlockedLayoutHandlesNonMultipleOf16Channels) {
  nn::EmbeddingNet net({5, 10, 20});  // M = 20, not a multiple of 16
  Rng rng(8);
  net.init_random(rng);
  TabulatedEmbedding table(net, {0.0, 1.0, 0.05});
  const table_ref::AosReference<double> aos(table, table);
  std::vector<double> g_a(20), g_b(20), d_a(20), d_b(20);
  for (double s : {0.05, 0.41, 0.93}) {
    aos(s, g_a.data(), d_a.data());
    table.eval_with_deriv(s, g_b.data(), d_b.data());
    for (std::size_t ch = 0; ch < 20; ++ch) {
      EXPECT_EQ(g_a[ch], g_b[ch]);
      EXPECT_EQ(d_a[ch], d_b[ch]);
    }
  }
}

TEST(TabulatedEmbedding, ExtrapolationIsSmoothAndCounted) {
  auto net = make_net(9);
  TabulatedEmbedding table(net, {0.0, 1.0, 0.1});
  std::vector<double> g_in(32), g_out(32);
  table.eval(1.0 - 1e-9, g_in.data());
  EXPECT_EQ(table.extrapolations(), 0u);
  table.eval(1.0 + 1e-9, g_out.data());
  EXPECT_EQ(table.extrapolations(), 1u);
  for (std::size_t ch = 0; ch < 32; ++ch) EXPECT_NEAR(g_in[ch], g_out[ch], 1e-7);
}

TEST(TabulatedEmbedding, RejectsBadSpec) {
  auto net = make_net(10);
  EXPECT_THROW(TabulatedEmbedding(net, {1.0, 1.0, 0.1}), Error);
  EXPECT_THROW(TabulatedEmbedding(net, {0.0, 1.0, 0.0}), Error);
}

}  // namespace
}  // namespace dp::tab
