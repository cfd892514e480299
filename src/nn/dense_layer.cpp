#include "nn/dense_layer.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "nn/gemm.hpp"

namespace dp::nn {

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Activation act, Shortcut shortcut)
    : in_(in), out_(out), act_(act), shortcut_(shortcut) {
  DP_CHECK(in > 0 && out > 0);
  if (shortcut == Shortcut::Identity) DP_CHECK_MSG(in == out, "identity shortcut needs in == out");
  if (shortcut == Shortcut::Concat) DP_CHECK_MSG(out == 2 * in, "concat shortcut needs out == 2*in");
  w_.resize(in, out);
  b_.assign(out, 0.0);
}

void DenseLayer::init_random(Rng& rng) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(in_));
  for (std::size_t i = 0; i < w_.size(); ++i) w_.data()[i] = rng.gaussian(0.0, scale);
  for (auto& b : b_) b = rng.gaussian(0.0, 0.1);
}

double DenseLayer::activate_deriv_from_value(double a) const {
  return act_ == Activation::Linear ? 1.0 : 1.0 - a * a;
}

void DenseLayer::forward_rows(const double* x, std::size_t rows, double* y,
                              double* act_save) const {
  // u = b + x W: every u element is one fma chain from its bias (gemm_acc's
  // contract), and the activation is elementwise with the same bits at any
  // position, so a row's output does not depend on its block-mates.
  for (std::size_t r = 0; r < rows; ++r)
    std::memcpy(y + r * out_, b_.data(), out_ * sizeof(double));
  gemm_acc(x, w_.data(), y, rows, in_, out_);
  const std::size_t n = rows * out_;
  switch (act_) {
    case Activation::Tanh:
      simd::pick_tanh(simd::active())(y, y, n);
      break;
    case Activation::TanhTabulated:
      default_tanh_table().eval_batch(y, y, n);
      break;
    case Activation::Linear:
      break;
  }
  if (act_save != nullptr) std::memcpy(act_save, y, n * sizeof(double));
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * in_;
    double* yr = y + r * out_;
    switch (shortcut_) {
      case Shortcut::None:
        break;
      case Shortcut::Identity:
        for (std::size_t j = 0; j < out_; ++j) yr[j] += xr[j];
        break;
      case Shortcut::Concat:
        for (std::size_t j = 0; j < out_; ++j) yr[j] += xr[j % in_];
        break;
    }
  }
}

void DenseLayer::backward_rows(const double* g_out, const double* act_saved, std::size_t rows,
                               double* g_in, double* g_u) const {
  // g_u = g_out .* act'(u), from the saved activation values.
  for (std::size_t k = 0; k < rows * out_; ++k)
    g_u[k] = g_out[k] * activate_deriv_from_value(act_saved[k]);
  gemm_nt(g_u, w_.data(), g_in, rows, out_, in_);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* go = g_out + r * out_;
    double* gi = g_in + r * in_;
    switch (shortcut_) {
      case Shortcut::None:
        break;
      case Shortcut::Identity:
        for (std::size_t j = 0; j < in_; ++j) gi[j] += go[j];
        break;
      case Shortcut::Concat:
        for (std::size_t j = 0; j < out_; ++j) gi[j % in_] += go[j];
        break;
    }
  }
}

void DenseLayer::forward_batch(const Matrix& x, Matrix& y) const {
  DP_CHECK(x.cols() == in_);
  y.resize(x.rows(), out_);
  forward_rows(x.data(), x.rows(), y.data(), nullptr);
}

void DenseLayer::forward_batch_ws(const Matrix& x, Matrix& y, Matrix& act_save) const {
  DP_CHECK(x.cols() == in_);
  y.resize(x.rows(), out_);
  act_save.resize(x.rows(), out_);
  forward_rows(x.data(), x.rows(), y.data(), act_save.data());
}

void DenseLayer::backward_batch(const Matrix& g_out, const Matrix& act_saved, Matrix& g_in,
                                Matrix& g_u) const {
  DP_CHECK(g_out.cols() == out_ && same_shape(g_out, act_saved));
  const std::size_t n = g_out.rows();
  g_in.resize(n, in_);
  g_u.resize(n, out_);
  backward_rows(g_out.data(), act_saved.data(), n, g_in.data(), g_u.data());
}

void DenseLayer::forward_jet(const double* x, const double* dx, const double* d2x,
                             double* y, double* dy, double* d2y) const {
  // u = x W + b and its two input-derivatives (linear, so they share W).
  AlignedVector<double> u = b_, du(out_, 0.0), d2u(out_, 0.0);
  gemm_acc(x, w_.data(), u.data(), 1, in_, out_);
  gemm_acc(dx, w_.data(), du.data(), 1, in_, out_);
  gemm_acc(d2x, w_.data(), d2u.data(), 1, in_, out_);
  for (std::size_t j = 0; j < out_; ++j) {
    double a, da, d2a;
    if (act_ == Activation::Linear) {
      a = u[j];
      da = du[j];
      d2a = d2u[j];
    } else {
      // Exact tanh in the jet path: the jet is used for force evaluation and
      // for building tables, both of which want the reference derivatives.
      a = std::tanh(u[j]);
      const double sech2 = 1.0 - a * a;
      da = sech2 * du[j];
      d2a = sech2 * d2u[j] - 2.0 * a * sech2 * du[j] * du[j];
    }
    y[j] = a;
    dy[j] = da;
    d2y[j] = d2a;
  }
  switch (shortcut_) {
    case Shortcut::None:
      break;
    case Shortcut::Identity:
      for (std::size_t j = 0; j < out_; ++j) {
        y[j] += x[j];
        dy[j] += dx[j];
        d2y[j] += d2x[j];
      }
      break;
    case Shortcut::Concat:
      for (std::size_t j = 0; j < out_; ++j) {
        y[j] += x[j % in_];
        dy[j] += dx[j % in_];
        d2y[j] += d2x[j % in_];
      }
      break;
  }
}

}  // namespace dp::nn
