// Parameterized layer sweep: forward/backward consistency for every
// (shape, activation, shortcut) combination used anywhere in the model.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "nn/dense_layer.hpp"

namespace dp::nn {
namespace {

using LayerParam = std::tuple<int /*in*/, int /*out*/, Activation, Shortcut>;

class LayerSweep : public ::testing::TestWithParam<LayerParam> {
 protected:
  void SetUp() override {
    const auto [in, out, act, sc] = GetParam();
    layer_ = std::make_unique<DenseLayer>(static_cast<std::size_t>(in),
                                          static_cast<std::size_t>(out), act, sc);
    Rng rng(static_cast<std::uint64_t>(in * 100 + out));
    layer_->init_random(rng);
    x_.resize(static_cast<std::size_t>(in));
    g_out_.resize(static_cast<std::size_t>(out));
    Rng data_rng(99);
    for (auto& v : x_) v = data_rng.uniform(-1, 1);
    for (auto& v : g_out_) v = data_rng.uniform(-1, 1);
  }

  std::unique_ptr<DenseLayer> layer_;
  std::vector<double> x_, g_out_;
};

TEST_P(LayerSweep, BackwardMatchesFiniteDifference) {
  const std::size_t in = layer_->in_dim(), out = layer_->out_dim();
  std::vector<double> y(out), act(out), g_in(in), g_u(out);
  layer_->forward_row(x_.data(), y.data(), act.data());
  layer_->backward_rows(g_out_.data(), act.data(), 1, g_in.data(), g_u.data());

  const double h = 1e-6;
  const double fd_tol = layer_->activation() == Activation::TanhTabulated ? 1e-4 : 1e-7;
  for (std::size_t p = 0; p < in; ++p) {
    auto xp = x_, xm = x_;
    xp[p] += h;
    xm[p] -= h;
    std::vector<double> yp(out), ym(out);
    layer_->forward_row(xp.data(), yp.data());
    layer_->forward_row(xm.data(), ym.data());
    double jp = 0, jm = 0;
    for (std::size_t j = 0; j < out; ++j) {
      jp += g_out_[j] * yp[j];
      jm += g_out_[j] * ym[j];
    }
    EXPECT_NEAR(g_in[p], (jp - jm) / (2 * h), fd_tol) << "p=" << p;
  }
}

TEST_P(LayerSweep, BatchMatchesRowPath) {
  const std::size_t in = layer_->in_dim(), out = layer_->out_dim();
  Matrix x(5, in);
  Rng rng(7);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(-1, 1);
  Matrix y;
  layer_->forward_batch(x, y);
  std::vector<double> row(out);
  for (std::size_t r = 0; r < 5; ++r) {
    layer_->forward_row(x.row(r), row.data());
    for (std::size_t j = 0; j < out; ++j) EXPECT_NEAR(y(r, j), row[j], 1e-13);
  }
}

TEST_P(LayerSweep, BatchBackwardMatchesRowBackward) {
  const std::size_t in = layer_->in_dim(), out = layer_->out_dim();
  Matrix x(4, in), y, acts;
  Rng rng(13);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(-1, 1);
  layer_->forward_batch_ws(x, y, acts);

  Matrix g_out(4, out), g_in, g_u;
  for (std::size_t i = 0; i < g_out.size(); ++i) g_out.data()[i] = rng.uniform(-1, 1);
  layer_->backward_batch(g_out, acts, g_in, g_u);

  // Block invariance: one row at a time reproduces the batch bit for bit.
  std::vector<double> row_y(out), row_act(out), row_gin(in), row_gu(out);
  for (std::size_t r = 0; r < 4; ++r) {
    layer_->forward_row(x.row(r), row_y.data(), row_act.data());
    layer_->backward_rows(g_out.row(r), row_act.data(), 1, row_gin.data(), row_gu.data());
    for (std::size_t p = 0; p < in; ++p) EXPECT_EQ(g_in(r, p), row_gin[p]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesActivationsShortcuts, LayerSweep,
    ::testing::Values(
        LayerParam{1, 8, Activation::Tanh, Shortcut::None},       // embedding layer 0
        LayerParam{8, 16, Activation::Tanh, Shortcut::Concat},    // embedding growth
        LayerParam{16, 32, Activation::Tanh, Shortcut::Concat},   // embedding growth
        LayerParam{24, 12, Activation::Tanh, Shortcut::None},     // fitting layer 0
        LayerParam{12, 12, Activation::Tanh, Shortcut::Identity}, // fitting hidden
        LayerParam{12, 1, Activation::Linear, Shortcut::None},    // energy read-out
        LayerParam{8, 8, Activation::TanhTabulated, Shortcut::Identity},
        LayerParam{6, 12, Activation::TanhTabulated, Shortcut::Concat}),
    [](const ::testing::TestParamInfo<LayerParam>& info) {
      return "case" + std::to_string(info.index);
    });

}  // namespace
}  // namespace dp::nn
