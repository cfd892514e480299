// Parameterized sweep over tabulation hyper-parameters: every (net shape,
// interval) combination must satisfy the spline invariants — node
// interpolation, C2 continuity, exact-gradient derivative, and the h^6
// convergence law of Fig 2.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "tab/table.hpp"

namespace dp::tab {
namespace {

using SweepParam = std::tuple<int /*d1*/, double /*interval*/>;

class TableSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    const auto [d1, interval] = GetParam();
    const auto w = static_cast<std::size_t>(d1);
    net_ = std::make_unique<nn::EmbeddingNet>(std::vector<std::size_t>{w, 2 * w, 4 * w});
    Rng rng(static_cast<std::uint64_t>(d1 * 1000) + 7);
    net_->init_random(rng);
    table_ = std::make_unique<TabulatedEmbedding>(*net_, TabulationSpec{0.0, 2.0, interval});
    m_ = net_->output_dim();
  }

  std::unique_ptr<nn::EmbeddingNet> net_;
  std::unique_ptr<TabulatedEmbedding> table_;
  std::size_t m_ = 0;
};

TEST_P(TableSweep, InterpolatesNodesExactly) {
  std::vector<double> g_tab(m_), g_net(m_);
  for (std::size_t k = 0; k <= table_->n_intervals(); k += 5) {
    const double s = std::min(table_->interval() * static_cast<double>(k), 2.0 - 1e-12);
    table_->eval(s, g_tab.data());
    net_->eval(s, g_net.data());
    for (std::size_t ch = 0; ch < m_; ++ch) EXPECT_NEAR(g_tab[ch], g_net[ch], 1e-9);
  }
}

TEST_P(TableSweep, C2AtInteriorNodes) {
  std::vector<double> ga(m_), da(m_), gb(m_), db(m_);
  const std::size_t stride = std::max<std::size_t>(1, table_->n_intervals() / 16);
  for (std::size_t k = stride; k < table_->n_intervals(); k += stride) {
    const double x = table_->interval() * static_cast<double>(k);
    table_->eval_with_deriv(x - 1e-10, ga.data(), da.data());
    table_->eval_with_deriv(x + 1e-10, gb.data(), db.data());
    for (std::size_t ch = 0; ch < m_; ++ch) {
      EXPECT_NEAR(ga[ch], gb[ch], 1e-8);
      EXPECT_NEAR(da[ch], db[ch], 1e-5);
    }
  }
}

TEST_P(TableSweep, DerivativeDifferentiatesTheTable) {
  std::vector<double> g(m_), dg(m_), gp(m_), gm(m_);
  const double h = 1e-7;
  Rng rng(3);
  for (int k = 0; k < 10; ++k) {
    const double s = rng.uniform(0.01, 1.99);
    table_->eval_with_deriv(s, g.data(), dg.data());
    table_->eval(s + h, gp.data());
    table_->eval(s - h, gm.data());
    for (std::size_t ch = 0; ch < m_; ++ch)
      EXPECT_NEAR(dg[ch], (gp[ch] - gm[ch]) / (2 * h), 1e-4);
  }
}

// The batched blocked walk against single-row walks, bit for bit.
TEST_P(TableSweep, BlockedLayoutBitIdentical) {
  constexpr std::size_t kRows = 25;
  std::vector<double> s(kRows), a(m_), da(m_), b(kRows * m_), db(kRows * m_);
  Rng rng(5);
  for (double& v : s) v = rng.uniform(0.0, 2.0);
  table_->eval_with_deriv_batch(s.data(), 1, kRows, b.data(), db.data(), m_);
  for (std::size_t k = 0; k < kRows; ++k) {
    table_->eval_with_deriv(s[k], a.data(), da.data());
    for (std::size_t ch = 0; ch < m_; ++ch) {
      EXPECT_EQ(a[ch], b[k * m_ + ch]);
      EXPECT_EQ(da[ch], db[k * m_ + ch]);
    }
  }
}

TEST_P(TableSweep, SizeMatchesFormula) {
  EXPECT_EQ(table_->bytes(), table_->n_intervals() * m_ * 6 * sizeof(double));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndIntervals, TableSweep,
    ::testing::Combine(::testing::Values(4, 8, 16), ::testing::Values(0.1, 0.02, 0.004)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "d1_" + std::to_string(std::get<0>(info.param)) + "_h" +
             std::to_string(static_cast<int>(1.0 / std::get<1>(info.param)));
    });

// Convergence law across the sweep (needs several intervals at one shape).
TEST(TableConvergence, ErrorFollowsSixthOrder) {
  nn::EmbeddingNet net({8, 16, 32});
  Rng rng(11);
  net.init_random(rng);
  auto max_err = [&](double interval) {
    TabulatedEmbedding table(net, {0.0, 2.0, interval});
    std::vector<double> g_tab(32), g_net(32);
    double e = 0;
    for (int k = 0; k < 400; ++k) {
      const double s = 2.0 * (k + 0.37) / 400.0;
      table.eval(s, g_tab.data());
      net.eval(s, g_net.data());
      for (std::size_t ch = 0; ch < 32; ++ch)
        e = std::max(e, std::fabs(g_tab[ch] - g_net[ch]));
    }
    return e;
  };
  const double e1 = max_err(0.2);
  const double e2 = max_err(0.1);
  const double e3 = max_err(0.05);
  // Quintic Hermite: halving h divides the error by ~2^6 = 64; allow slack.
  EXPECT_GT(e1 / e2, 25.0);
  EXPECT_GT(e2 / e3, 25.0);
}

}  // namespace
}  // namespace dp::tab
