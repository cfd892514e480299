#include "nn/dense_layer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dp::nn {
namespace {

DenseLayer make_layer(std::size_t in, std::size_t out, Activation act, Shortcut sc,
                      std::uint64_t seed) {
  DenseLayer layer(in, out, act, sc);
  Rng rng(seed);
  layer.init_random(rng);
  return layer;
}

TEST(DenseLayer, ForwardRowMatchesManualTanh) {
  auto layer = make_layer(3, 2, Activation::Tanh, Shortcut::None, 1);
  std::vector<double> x{0.3, -0.7, 1.1}, y(2);
  layer.forward_row(x.data(), y.data());
  for (std::size_t j = 0; j < 2; ++j) {
    double u = layer.bias()[j];
    for (std::size_t p = 0; p < 3; ++p) u += x[p] * layer.weights()(p, j);
    EXPECT_NEAR(y[j], std::tanh(u), 1e-14);
  }
}

TEST(DenseLayer, IdentityShortcutAddsInput) {
  auto plain = make_layer(4, 4, Activation::Tanh, Shortcut::None, 2);
  DenseLayer res(4, 4, Activation::Tanh, Shortcut::Identity);
  res.weights() = plain.weights();
  res.bias() = plain.bias();
  std::vector<double> x{0.1, -0.2, 0.3, -0.4}, yp(4), yr(4);
  plain.forward_row(x.data(), yp.data());
  res.forward_row(x.data(), yr.data());
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(yr[j], yp[j] + x[j], 1e-14);
}

TEST(DenseLayer, ConcatShortcutDuplicatesInput) {
  auto plain = make_layer(3, 6, Activation::Tanh, Shortcut::None, 3);
  DenseLayer cc(3, 6, Activation::Tanh, Shortcut::Concat);
  cc.weights() = plain.weights();
  cc.bias() = plain.bias();
  std::vector<double> x{0.5, -0.6, 0.7}, yp(6), yc(6);
  plain.forward_row(x.data(), yp.data());
  cc.forward_row(x.data(), yc.data());
  for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(yc[j], yp[j] + x[j % 3], 1e-14);
}

TEST(DenseLayer, BatchMatchesRowByRow) {
  auto layer = make_layer(5, 10, Activation::Tanh, Shortcut::Concat, 4);
  Matrix x(7, 5);
  Rng rng(99);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(-1, 1);
  Matrix y;
  layer.forward_batch(x, y);
  std::vector<double> yr(10);
  for (std::size_t r = 0; r < 7; ++r) {
    layer.forward_row(x.row(r), yr.data());
    for (std::size_t j = 0; j < 10; ++j) EXPECT_NEAR(y(r, j), yr[j], 1e-13);
  }
}

// Finite-difference check of the one-row backward_rows for all shortcut types.
void check_backward(Shortcut sc, std::size_t in, std::size_t out) {
  auto layer = make_layer(in, out, Activation::Tanh, sc, 5);
  Rng rng(7);
  std::vector<double> x(in), g_out(out);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : g_out) v = rng.uniform(-1, 1);

  std::vector<double> y(out), act(out), g_in(in), g_u(out);
  layer.forward_row(x.data(), y.data(), act.data());
  layer.backward_rows(g_out.data(), act.data(), 1, g_in.data(), g_u.data());

  // scalar objective J = g_out . y(x); dJ/dx should equal g_in.
  const double h = 1e-6;
  for (std::size_t p = 0; p < in; ++p) {
    auto xp = x, xm = x;
    xp[p] += h;
    xm[p] -= h;
    std::vector<double> yp(out), ym(out);
    layer.forward_row(xp.data(), yp.data());
    layer.forward_row(xm.data(), ym.data());
    double jp = 0, jm = 0;
    for (std::size_t j = 0; j < out; ++j) {
      jp += g_out[j] * yp[j];
      jm += g_out[j] * ym[j];
    }
    EXPECT_NEAR(g_in[p], (jp - jm) / (2 * h), 1e-7) << "shortcut " << int(sc) << " p=" << p;
  }
}

TEST(DenseLayer, BackwardMatchesFiniteDifferenceNone) { check_backward(Shortcut::None, 6, 4); }
TEST(DenseLayer, BackwardMatchesFiniteDifferenceIdentity) {
  check_backward(Shortcut::Identity, 5, 5);
}
TEST(DenseLayer, BackwardMatchesFiniteDifferenceConcat) { check_backward(Shortcut::Concat, 4, 8); }

TEST(DenseLayer, JetFirstDerivativeMatchesFD) {
  // Chain two layers like the embedding net does and check d/ds by FD.
  auto l0 = make_layer(1, 4, Activation::Tanh, Shortcut::None, 8);
  auto l1 = make_layer(4, 8, Activation::Tanh, Shortcut::Concat, 9);
  auto eval = [&](double s, std::vector<double>& out) {
    std::vector<double> h0(4);
    l0.forward_row(&s, h0.data());
    out.resize(8);
    l1.forward_row(h0.data(), out.data());
  };
  auto jet = [&](double s, std::vector<double>& g, std::vector<double>& dg,
                 std::vector<double>& d2g) {
    std::vector<double> x{s}, dx{1.0}, d2x{0.0};
    std::vector<double> h(4), dh(4), d2h(4);
    l0.forward_jet(x.data(), dx.data(), d2x.data(), h.data(), dh.data(), d2h.data());
    g.resize(8);
    dg.resize(8);
    d2g.resize(8);
    l1.forward_jet(h.data(), dh.data(), d2h.data(), g.data(), dg.data(), d2g.data());
  };

  const double s = 0.37, h = 1e-5;
  std::vector<double> g, dg, d2g, yp, ym, y0;
  jet(s, g, dg, d2g);
  eval(s, y0);
  eval(s + h, yp);
  eval(s - h, ym);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(g[j], y0[j], 1e-13);
    EXPECT_NEAR(dg[j], (yp[j] - ym[j]) / (2 * h), 1e-8);
    EXPECT_NEAR(d2g[j], (yp[j] - 2 * y0[j] + ym[j]) / (h * h), 1e-4);
  }
}

TEST(DenseLayer, TabulatedActivationCloseToExact) {
  auto exact = make_layer(3, 5, Activation::Tanh, Shortcut::None, 10);
  DenseLayer tab(3, 5, Activation::TanhTabulated, Shortcut::None);
  tab.weights() = exact.weights();
  tab.bias() = exact.bias();
  std::vector<double> x{0.9, -1.4, 0.2}, ye(5), yt(5);
  exact.forward_row(x.data(), ye.data());
  tab.forward_row(x.data(), yt.data());
  for (std::size_t j = 0; j < 5; ++j) EXPECT_NEAR(ye[j], yt[j], 1e-7);
}

TEST(DenseLayer, ConstructorValidatesShortcutShapes) {
  EXPECT_THROW(DenseLayer(3, 4, Activation::Tanh, Shortcut::Identity), Error);
  EXPECT_THROW(DenseLayer(3, 5, Activation::Tanh, Shortcut::Concat), Error);
  EXPECT_NO_THROW(DenseLayer(3, 6, Activation::Tanh, Shortcut::Concat));
}

}  // namespace
}  // namespace dp::nn
