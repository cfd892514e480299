// Block evaluation of the dense layers and the fitting net (the batched
// fitting net of the inference paths). Two promises:
//   * parity: a block of n rows matches a plain per-row reference within
//     1e-12 relative, for every Shortcut kind, Tanh and TanhTabulated, and
//     n = 1 ... 2 kFitBlock + 3;
//   * block invariance: each row's energy and dE/dD are bitwise identical
//     whatever block it lands in (size, position, tail tiles shorter than
//     the register tile), at every SIMD level this host supports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/tanh_table.hpp"
#include "nn/fitting_net.hpp"

namespace dp::nn {
namespace {

constexpr std::size_t kMaxRows = 2 * kFitBlock + 3;

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

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

FittingNet make_net(std::size_t in, std::vector<std::size_t> hidden, std::uint64_t seed) {
  FittingNet net(in, hidden);
  Rng rng(seed);
  net.init_random(rng);
  return net;
}

double act_ref(Activation a, double u) {
  switch (a) {
    case Activation::Tanh:
      return std::tanh(u);
    case Activation::TanhTabulated:
      return default_tanh_table().eval(u);
    case Activation::Linear:
      return u;
  }
  return u;
}

/// Textbook one-row forward and reverse mode of one layer: y = layer(x) and
/// g_in = g_out dy/dx.
void layer_ref(const DenseLayer& layer, const double* x, const double* g_out, double* y,
               double* g_in) {
  const std::size_t in = layer.in_dim(), out = layer.out_dim();
  std::vector<double> a(out);
  for (std::size_t j = 0; j < out; ++j) {
    double u = layer.bias()[j];
    for (std::size_t p = 0; p < in; ++p) u += x[p] * layer.weights()(p, j);
    a[j] = act_ref(layer.activation(), u);
  }
  for (std::size_t p = 0; p < in; ++p) {
    double s = 0.0;
    for (std::size_t j = 0; j < out; ++j) {
      const double da = layer.activation() == Activation::Linear ? 1.0 : 1.0 - a[j] * a[j];
      s += g_out[j] * da * layer.weights()(p, j);
    }
    g_in[p] = s;
  }
  for (std::size_t j = 0; j < out; ++j) y[j] = a[j];
  if (layer.shortcut() == Shortcut::Identity) {
    for (std::size_t j = 0; j < out; ++j) {
      y[j] += x[j];
      g_in[j] += g_out[j];
    }
  } else if (layer.shortcut() == Shortcut::Concat) {
    for (std::size_t j = 0; j < out; ++j) {
      y[j] += x[j % in];
      g_in[j % in] += g_out[j];
    }
  }
}

/// One-row reference through the whole net: returns E, writes dE/dD.
double net_ref(const FittingNet& net, const double* d, double* g_d) {
  const auto& layers = net.layers();
  std::vector<std::vector<double>> xs{std::vector<double>(d, d + net.input_dim())};
  for (const auto& layer : layers) {
    std::vector<double> y(layer.out_dim()), zero(layer.out_dim(), 0.0), g(layer.in_dim());
    layer_ref(layer, xs.back().data(), zero.data(), y.data(), g.data());
    xs.push_back(y);
  }
  std::vector<double> g_out{1.0};
  for (std::size_t l = layers.size(); l-- > 0;) {
    std::vector<double> y(layers[l].out_dim()), g_in(layers[l].in_dim());
    layer_ref(layers[l], xs[l].data(), g_out.data(), y.data(), g_in.data());
    g_out = g_in;
  }
  std::copy(g_out.begin(), g_out.end(), g_d);
  return xs.back()[0];
}

void expect_close(double got, double want, const char* what, std::size_t n, std::size_t r) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::max(1.0, std::abs(want)))
      << what << " n=" << n << " row=" << r;
}

TEST(FitBlock, LayerRowsMatchReferenceForEveryShortcut) {
  struct Shape {
    std::size_t in, out;
    Shortcut sc;
  };
  for (const Shape s : {Shape{11, 9, Shortcut::None}, Shape{13, 13, Shortcut::Identity},
                        Shape{7, 14, Shortcut::Concat}}) {
    for (const Activation act : {Activation::Tanh, Activation::TanhTabulated}) {
      DenseLayer layer(s.in, s.out, act, s.sc);
      Rng rng(s.in * 31 + s.out);
      layer.init_random(rng);
      const auto x = random_vec(kMaxRows * s.in, 1);
      const auto g_out = random_vec(kMaxRows * s.out, 2);
      std::vector<double> y_ref(s.out), gin_ref(s.in);
      for (std::size_t n = 1; n <= kMaxRows; ++n) {
        std::vector<double> y(n * s.out), acts(n * s.out), g_in(n * s.in), g_u(n * s.out);
        layer.forward_rows(x.data(), n, y.data(), acts.data());
        layer.backward_rows(g_out.data(), acts.data(), n, g_in.data(), g_u.data());
        for (std::size_t r = 0; r < n; ++r) {
          layer_ref(layer, x.data() + r * s.in, g_out.data() + r * s.out, y_ref.data(),
                    gin_ref.data());
          for (std::size_t j = 0; j < s.out; ++j) expect_close(y[r * s.out + j], y_ref[j], "y", n, r);
          for (std::size_t p = 0; p < s.in; ++p)
            expect_close(g_in[r * s.in + p], gin_ref[p], "g_in", n, r);
        }
      }
    }
  }
}

TEST(FitBlock, FittingNetBlockMatchesRowReference) {
  for (const Activation act : {Activation::Tanh, Activation::TanhTabulated}) {
    auto net = make_net(29, {24, 24, 24}, 3);
    net.set_activation(act);
    const std::size_t in = net.input_dim();
    const auto d = random_vec(kMaxRows * in, 4);
    std::vector<double> g_ref(in);
    FittingNet::Workspace ws;
    for (std::size_t n = 1; n <= kMaxRows; ++n) {
      std::vector<double> e(n), g(n * in);
      net.forward_block(d.data(), n, ws, e.data());
      net.backward(ws, g.data());
      for (std::size_t r = 0; r < n; ++r) {
        expect_close(e[r], net_ref(net, d.data() + r * in, g_ref.data()), "E", n, r);
        for (std::size_t p = 0; p < in; ++p) expect_close(g[r * in + p], g_ref[p], "dE/dD", n, r);
      }
      // dE/dD written over the rows forward read (descriptor_fit_block does
      // this): backward reads only the workspace, so the bits are the same.
      std::vector<double> d_in_place(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(n * in));
      net.forward_block(d_in_place.data(), n, ws, e.data());
      net.backward(ws, d_in_place.data());
      EXPECT_EQ(0, std::memcmp(d_in_place.data(), g.data(), n * in * sizeof(double))) << "n=" << n;
    }
  }
}

TEST(FitBlock, BlockInvarianceIsBitwise) {
  // Widths off the vector grid exercise every tail: 37 / 29 leave partial
  // vectors and scalar columns at every lane width; rows sweep past two
  // full blocks plus register-tile tails at several offsets.
  for (const auto& shape : {std::pair<std::size_t, std::vector<std::size_t>>{37, {29, 29}},
                            std::pair<std::size_t, std::vector<std::size_t>>{24, {24, 24, 24}}}) {
    const auto net = make_net(shape.first, shape.second, 5);
    const std::size_t in = net.input_dim();
    const std::size_t total = kMaxRows + 3;
    const auto d = random_vec(total * in, 6);
    for (const simd::Level lvl : supported_levels()) {
      LevelGuard guard(lvl);
      FittingNet::Workspace ws;
      std::vector<double> e_one(total), g_one(total * in);
      for (std::size_t r = 0; r < total; ++r) {
        e_one[r] = net.forward(d.data() + r * in, ws);
        net.backward(ws, g_one.data() + r * in);
      }
      for (std::size_t n = 1; n <= kMaxRows; ++n) {
        for (const std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
          std::vector<double> e(n), g(n * in);
          net.forward_block(d.data() + off * in, n, ws, e.data());
          net.backward(ws, g.data());
          EXPECT_EQ(0, std::memcmp(e.data(), e_one.data() + off, n * sizeof(double)))
              << simd::name(lvl) << " n=" << n << " off=" << off;
          EXPECT_EQ(0, std::memcmp(g.data(), g_one.data() + off * in, n * in * sizeof(double)))
              << simd::name(lvl) << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dp::nn
