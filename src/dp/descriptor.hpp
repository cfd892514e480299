// The symmetry-preserving descriptor D = (G<)^T R~ R~^T G (paper Eq. 2) in
// its contracted form: with A = (1/N_m) R~^T G (4 x M) and A< its first M<
// columns, D = A<^T A (M< x M).
//
// Every se_a path (baseline, compressed, fused, mixed) funnels through these
// two kernels, so they are the single point of truth for the descriptor
// algebra and its adjoint. Every path, se_r included, evaluates its fitting
// net through FitBlocks.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/aligned.hpp"
#include "dp/model_config.hpp"
#include "nn/fitting_net.hpp"

namespace dp::core {

/// d_flat[a * m + b] = sum_c a_mat[c * m + a_col(a)] * a_mat[c * m + b],
/// a < m_sub, b < m; a_mat is the 4 x m matrix A (row-major).
void descriptor_forward(const double* a_mat, std::size_t m, std::size_t m_sub, double* d_flat);

/// Adjoint: g_a (4 x m) from g_d (m_sub x m) and A.
///   g_A[c][q] = sum_{a < m_sub} g_d[a][q] A[c][a]
///             + (q < m_sub ? sum_b g_d[q][b] A[c][b] : 0)
void descriptor_backward(const double* a_mat, const double* g_d, std::size_t m,
                         std::size_t m_sub, double* g_a);

/// Scratch for descriptor_fit_block / descriptor_fit_atom, reused across
/// calls (grow-only). d_flat holds the block's D rows and then, in place,
/// their dE/dD.
struct AtomKernelScratch {
  nn::FittingNet::Workspace fit_ws;
  std::vector<double> d_flat;
};

/// The shared middle of every inference path, for a block of `rows` atoms of
/// one center type: from their (already 1/N_m scaled) A matrices (4 x m
/// each, packed) to energy[r] and the scaled gradients g_a = dE/dA * scale
/// (packed the same way, ready to contract against R~ and G rows). One
/// forward and one backward GEMM per fitting layer serve the whole block;
/// each atom's energy and g_a are bitwise independent of `rows` and of its
/// position in the block.
void descriptor_fit_block(const nn::FittingNet& fit, const double* a_mats, std::size_t rows,
                          std::size_t m, std::size_t m_sub, double scale,
                          AtomKernelScratch& scratch, double* g_a, double* energy);

/// One atom: descriptor_fit_block with rows = 1.
double descriptor_fit_atom(const nn::FittingNet& fit, const double* a_mat, std::size_t m,
                           std::size_t m_sub, double scale, AtomKernelScratch& scratch,
                           double* g_a);

/// Throws unless `cfg` is configured with `kind`: a path's kernels build one
/// descriptor, and the fitting net's input width follows the model's.
void require_descriptor(const ModelConfig& cfg, DescriptorKind kind, const char* path);

/// One thread's pending fitting blocks: the middle phase of every DP path's
/// three-phase atom loop (pass 1 per atom, one batched descriptor + fitting
/// evaluation per block, pass 2 per atom). Pass 1 leaves an atom's row,
/// already scaled by 1/N_m, in its center type's block: the 4 x m matrix A
/// for se_a, the m-wide descriptor D itself for se_r, which goes straight
/// into the fitting net. A block is evaluated when it holds nn::kFitBlock
/// atoms or when the caller's atom range ends. Water interleaves O and H, so
/// every center type keeps its own block.
class FitBlocks {
 public:
  /// Grow-only sizing for cfg's center types and its descriptor's row
  /// shape; also empties every block and zeroes the block counter.
  void prepare(const ModelConfig& cfg);

  /// Queues atom i in center type t's block and returns its row, zeroed,
  /// ready for pass 1.
  double* push(int t, std::size_t i);
  bool full(int t) const { return count_[static_cast<std::size_t>(t)] == nn::kFitBlock; }

  /// Evaluates type t's queued atoms (a no-op when none): writes
  /// atom_energy[i] for each, then calls pass2(i, grad) in queue order with
  /// grad = dE/dA / N_m (4 x m) for se_a, dE/dD (m, unscaled) for se_r.
  template <class Pass2>
  void flush(int t, const nn::FittingNet& fit, double* atom_energy, Pass2&& pass2) {
    const std::size_t ut = static_cast<std::size_t>(t);
    const std::size_t rows = count_[ut];
    if (rows == 0) return;
    count_[ut] = 0;
    ++blocks_;
    const double* grad = evaluate(ut, fit, rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t i = atoms_[ut][r];
      atom_energy[i] = energy_[r];
      pass2(i, grad + r * width_);
    }
  }

  /// Blocks evaluated since prepare().
  std::size_t blocks() const { return blocks_; }
  /// Capacity-based bytes of the block buffers.
  std::size_t bytes() const;

 private:
  /// The descriptor (se_a) and fitting net, forward and backward, over type
  /// t's first `rows` rows; returns their gradients, width_ apart.
  const double* evaluate(std::size_t t, const nn::FittingNet& fit, std::size_t rows);

  bool se_a_ = true;
  std::size_t m_ = 0, m_sub_ = 0;
  std::size_t width_ = 0;  ///< row width: 4 m (se_a) or m (se_r)
  double scale_ = 1.0;     ///< 1 / N_m
  std::vector<AlignedVector<double>> rows_;  ///< per type: kFitBlock rows
  std::vector<std::array<std::size_t, nn::kFitBlock>> atoms_;  ///< queued atom ids
  std::vector<std::size_t> count_;        ///< queued atoms per type
  AlignedVector<double> g_a_;             ///< se_a: kFitBlock scaled dE/dA matrices
  std::array<double, nn::kFitBlock> energy_{};
  AtomKernelScratch kernel_;
  std::size_t blocks_ = 0;
};

/// Books one compute()'s fitting work under the CostRegistry entry
/// "fit.block": forward + backward GEMMs (the input-gradient pass repeats
/// the forward MACs) at 2 FLOPs per MAC for every atom, and the weights
/// streamed once per block. Its arithmetic intensity is what batching buys.
void record_fit_block_cost(const nn::FittingNet& fit, std::size_t atoms, std::size_t blocks);

}  // namespace dp::core
