// The embedding net: a smooth map g : R -> R^M applied to every entry of
// s(r_ij) (paper Sec 2.1, Fig 1 (c)/(e)).
//
// Layer 0 expands the scalar to d1 channels (tanh); each following layer
// doubles the width with a concat shortcut, ending at M = widths.back().
// Because the input is a single scalar, forward-mode differentiation gives
// exact dG/ds and d2G/ds2 — used for forces and for fitting the quintic
// tabulation segments.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/dense_layer.hpp"
#include "nn/tensor.hpp"

namespace dp::nn {

class EmbeddingNet {
 public:
  EmbeddingNet() = default;
  /// widths e.g. {32, 64, 128}: layer widths after each of the three layers.
  explicit EmbeddingNet(const std::vector<std::size_t>& widths,
                        Activation act = Activation::Tanh);

  void init_random(Rng& rng);

  std::size_t output_dim() const { return widths_.empty() ? 0 : widths_.back(); }
  const std::vector<std::size_t>& widths() const { return widths_; }
  std::vector<DenseLayer>& layers() { return layers_; }
  const std::vector<DenseLayer>& layers() const { return layers_; }
  void set_activation(Activation a);

  /// Baseline batched execution: G (n x M) from the n scalars s[i]. This is
  /// the GEMM pipeline of Fig 1 (e) that the tabulation replaces.
  void forward_batch(const double* s, std::size_t n, Matrix& g) const;

  /// Per-layer state retained by forward_batch_ws for backward_batch.
  struct BatchWorkspace {
    std::vector<Matrix> inputs;  // inputs[l]: input matrix of layer l
    std::vector<Matrix> acts;    // acts[l]: act(u) of layer l
  };

  /// backward_batch's gradient scratch, grow-only. Nothing in it outlives a
  /// call, so one instance serves every net a caller runs backward in turn.
  struct BackwardScratch {
    Matrix grad_a, grad_b, grad_u;
    std::size_t bytes() const {
      return (grad_a.capacity() + grad_b.capacity() + grad_u.capacity()) * sizeof(double);
    }
  };

  /// Batched forward retaining activations; G (n x M).
  void forward_batch_ws(const double* s, std::size_t n, Matrix& g, BatchWorkspace& ws) const;

  /// Batched reverse-mode: g_s[i] = sum_j gG(i, j) * dG(i, j)/ds_i.
  void backward_batch(const BatchWorkspace& ws, const Matrix& g_g, double* g_s,
                      BackwardScratch& scratch) const;

  /// Single-scalar evaluation, g has length M.
  void eval(double s, double* g) const;

  /// Value + first + second derivative with respect to s (each length M).
  void eval_jet(double s, double* g, double* dg, double* d2g) const;

  /// FLOPs per input scalar of the batched (original-model) execution,
  /// matching the paper's count N_m*(d1 + 10*d1^2) per atom for {d1,2d1,4d1}.
  double flops_per_scalar() const;

 private:
  std::vector<std::size_t> widths_;
  std::vector<DenseLayer> layers_;
};

}  // namespace dp::nn
