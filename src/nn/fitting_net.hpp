// The fitting net: maps the flattened symmetry-preserving descriptor D_i to
// the atomic energy E_i (paper Sec 2.1, Fig 1 (d)).
//
// Hidden layers share one width and use identity shortcuts; the output layer
// is linear to a single scalar. Reverse-mode through the net yields dE/dD,
// the seed of the force back-propagation.
//
// Evaluation is batched over a block of rows (atoms of one center type):
// each layer is one forward GEMM and one backward GEMM for the whole block,
// so the weights stream from memory once per block instead of once per
// atom — the per-type MatMul of the paper's TensorFlow graph, cut to a
// cache-sized block. The single-row forward() is the rows = 1 case of the
// same code, and every row's outputs are bitwise independent of the block
// it is evaluated in (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/dense_layer.hpp"

namespace dp::nn {

/// Atoms per fitting block in the inference paths. Each block streams the
/// weights once (3.9 MB for the first layer of the paper's copper model),
/// so 32 rows halve the weight bytes per atom of 16. One thread's block
/// scratch (A matrices, descriptor rows and their gradients, layer
/// activations) is then about 1.3 MB on that model: a fixed cost per
/// thread, not per atom.
inline constexpr std::size_t kFitBlock = 32;

class FittingNet {
 public:
  FittingNet() = default;
  /// in_dim = M< * M (flattened descriptor); hidden e.g. {240, 240, 240}.
  FittingNet(std::size_t in_dim, const std::vector<std::size_t>& hidden,
             Activation act = Activation::Tanh);

  void init_random(Rng& rng);

  std::size_t input_dim() const { return in_dim_; }
  std::vector<DenseLayer>& layers() { return layers_; }
  const std::vector<DenseLayer>& layers() const { return layers_; }
  void set_activation(Activation a);

  /// Per-thread forward/backward state, grow-only: sized by the first block
  /// of each size, reused without allocating afterwards.
  struct Workspace {
    std::size_t rows = 0;                      // rows of the last forward
    std::vector<AlignedVector<double>> outs;   // outs[l]: output rows of layer l
    std::vector<AlignedVector<double>> acts;   // acts[l]: act(u) rows of layer l
    mutable AlignedVector<double> grad_a, grad_b, grad_u;  // backward scratch
    /// Capacity-based bytes of the buffers above.
    std::size_t bytes() const;
  };

  /// E = N(d) for one row; records everything backward() needs into ws.
  double forward(const double* d, Workspace& ws) const;

  /// energy[r] = N(d_r) for `rows` rows of d (row stride input_dim()), same
  /// bookkeeping as forward().
  void forward_block(const double* d, std::size_t rows, Workspace& ws, double* energy) const;

  /// g_d[r][j] = dE_r/dD_rj for the ws.rows rows of the preceding
  /// forward()/forward_block(). Backward reads only ws, never the input
  /// rows, so g_d may be the buffer forward read d from.
  void backward(const Workspace& ws, double* g_d) const;

  /// Multiply-add count of one forward evaluation.
  double flops_per_eval() const;
  /// Bytes of all weights and biases: what one block streams per pass.
  double weight_bytes() const;

 private:
  /// Grow-only sizing of ws for `rows` rows — the only place it allocates.
  void ensure_workspace(Workspace& ws, std::size_t rows) const;

  std::size_t in_dim_ = 0;
  std::vector<DenseLayer> layers_;
};

}  // namespace dp::nn
