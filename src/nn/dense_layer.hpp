// A fully connected layer with the shortcut variants the DP model uses.
//
//   None:     y = act(x W + b)                        (first layers, output)
//   Identity: y = x + act(x W + b)                    (fitting-net hidden)
//   Concat:   y = (x, x) + act(x W + b), out = 2 in   (embedding-net growth)
//
// Every evaluation mode runs on one pair of row-block kernels: forward_rows
// (u = b + x W over a block of rows, one gemm_acc, then one batched
// activation over the whole block: simd::pick_tanh for Tanh,
// TanhTable::eval_batch for TanhTabulated) and backward_rows (dE/dx =
// (dE/dy .* act') W^T over the same rows, one gemm_nt). Each output
// element's arithmetic is independent of the block it is computed in
// (nn/gemm.hpp), so a row gives the same bits alone or batched. The Matrix
// wrappers (the baseline embedding GEMM pipeline), the one-row forward_row
// and the fitting net's block evaluator all call them; the forward "jet"
// (value, d/ds, d2/ds2) serves the scalar-input embedding net, whose forces
// and tabulation need exact input derivatives, and keeps std::tanh.
#pragma once

#include <cstddef>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/tanh_table.hpp"
#include "nn/tensor.hpp"

namespace dp::nn {

enum class Activation { Tanh, TanhTabulated, Linear };
enum class Shortcut { None, Identity, Concat };

class DenseLayer {
 public:
  DenseLayer() = default;
  DenseLayer(std::size_t in, std::size_t out, Activation act, Shortcut shortcut);

  /// Gaussian init: W ~ N(0, 1/in), b ~ N(0, 0.1). This stands in for a
  /// trained model; the optimization experiments only depend on the network
  /// shape and smoothness (see DESIGN.md substitutions).
  void init_random(Rng& rng);

  std::size_t in_dim() const { return in_; }
  std::size_t out_dim() const { return out_; }
  Activation activation() const { return act_; }
  Shortcut shortcut() const { return shortcut_; }
  void set_activation(Activation a) { act_ = a; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  AlignedVector<double>& bias() { return b_; }
  const AlignedVector<double>& bias() const { return b_; }

  /// Forward over `rows` rows: y (rows x out) from x (rows x in). `act_save`
  /// (rows x out, may be nullptr) receives the pure activation act(xW+b)
  /// that backward_rows needs.
  void forward_rows(const double* x, std::size_t rows, double* y, double* act_save) const;

  /// Single-row forward: forward_rows with rows = 1.
  void forward_row(const double* x, double* y, double* act_save = nullptr) const {
    forward_rows(x, 1, y, act_save);
  }

  /// Batched forward: y (n x out) from x (n x in).
  void forward_batch(const Matrix& x, Matrix& y) const;

  /// Reverse mode over `rows` rows: g_in (rows x in) = dE/dx from g_out
  /// (rows x out) = dE/dy and the saved activations; g_u (rows x out) is the
  /// caller's scratch for dE/du. g_in must not alias g_out.
  void backward_rows(const double* g_out, const double* act_saved, std::size_t rows,
                     double* g_in, double* g_u) const;

  /// Batched forward that also retains the pure activation values needed by
  /// backward_batch (one row per sample).
  void forward_batch_ws(const Matrix& x, Matrix& y, Matrix& act_save) const;

  /// Matrix form of backward_rows (g_u is the caller's scratch). This is
  /// what TensorFlow does for the embedding net when forces are requested
  /// (baseline path).
  void backward_batch(const Matrix& g_out, const Matrix& act_saved, Matrix& g_in,
                      Matrix& g_u) const;

  /// Forward-mode propagation of value + first + second derivative with
  /// respect to a single upstream scalar input.
  void forward_jet(const double* x, const double* dx, const double* d2x,
                   double* y, double* dy, double* d2y) const;

 private:
  double activate_deriv_from_value(double a) const;  // act'(u) given a=act(u)

  std::size_t in_ = 0, out_ = 0;
  Activation act_ = Activation::Tanh;
  Shortcut shortcut_ = Shortcut::None;
  Matrix w_;                  // in x out
  AlignedVector<double> b_;   // out
};

}  // namespace dp::nn
