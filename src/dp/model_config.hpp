// Hyper-parameters of a Deep Potential model (paper Sec 2.1 / Sec 4).
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace dp::core {

/// Descriptor flavor: the paper's two-axis se_a (Eq. 2) or the cheaper
/// radial-only se_r, whose per-atom descriptor is the mean embedding row
/// D[b] = (1/N_m) sum_j g_b(s_j) — rotation-invariant by construction since
/// it sees only distances.
enum class DescriptorKind { SeA, SeR };

struct ModelConfig {
  double rcut = 6.0;       ///< descriptor cutoff R_c [A]
  double rcut_smth = 4.0;  ///< inner radius where the gate starts decaying [A]
  int ntypes = 1;
  /// Reserved neighbor slots per neighbor type; N_m = sum(sel). The paper
  /// reserves generously (copper: 500 for high-pressure states) — the slack
  /// is exactly the redundancy the optimized kernels bypass.
  std::vector<int> sel = {128};
  std::vector<std::size_t> embed_widths = {32, 64, 128};  ///< per-layer widths
  /// true: one embedding net per *neighbor* type (DeePMD type_one_side);
  /// false: one per (center, neighbor) type pair — ntypes^2 nets. The pair
  /// mode is supported by the tabulated/fused paths (each atom looks up its
  /// own tables); the legacy GEMM paths require one-side batching.
  bool type_one_side = true;
  DescriptorKind descriptor = DescriptorKind::SeA;
  std::size_t axis_neuron = 16;                           ///< M< (sub-matrix columns, se_a only)
  std::vector<std::size_t> fit_widths = {240, 240, 240};

  int nm() const { return std::accumulate(sel.begin(), sel.end(), 0); }
  std::size_t m() const { return embed_widths.back(); }
  std::size_t descriptor_dim() const {
    return descriptor == DescriptorKind::SeA ? axis_neuron * m() : m();
  }
  /// Row offset of neighbor-type t's slot block in the environment matrix.
  int type_offset(int t) const {
    return std::accumulate(sel.begin(), sel.begin() + t, 0);
  }

  void validate() const {
    DP_CHECK(rcut > 0 && rcut_smth >= 0 && rcut_smth < rcut);
    DP_CHECK(ntypes >= 1 && static_cast<int>(sel.size()) == ntypes);
    for (int s : sel) DP_CHECK(s > 0);
    DP_CHECK_MSG(std::accumulate(sel.begin(), sel.end(), std::int64_t{0}) <= INT_MAX,
                 "sum of sel overflows N_m");
    DP_CHECK(!embed_widths.empty() && !fit_widths.empty());
    DP_CHECK(axis_neuron >= 1 && axis_neuron <= m());
  }

  /// Paper water model: rc = 6 A, N_m = 138 (O: 46, H: 92), nets 32x64x128
  /// and 240x240x240.
  static ModelConfig water() {
    ModelConfig c;
    c.rcut = 6.0;
    c.rcut_smth = 0.5;
    c.ntypes = 2;
    c.sel = {46, 92};
    c.embed_widths = {32, 64, 128};
    c.axis_neuron = 16;
    c.fit_widths = {240, 240, 240};
    return c;
  }

  /// Paper copper model: rc = 8 A, N_m = 500 (reserved for high pressure).
  static ModelConfig copper() {
    ModelConfig c;
    c.rcut = 8.0;
    c.rcut_smth = 2.0;
    c.ntypes = 1;
    c.sel = {500};
    c.embed_widths = {32, 64, 128};
    c.axis_neuron = 16;
    c.fit_widths = {240, 240, 240};
    return c;
  }

  /// Small configuration for fast unit tests (not a paper model).
  static ModelConfig tiny(int ntypes = 1) {
    ModelConfig c;
    c.rcut = 4.0;
    c.rcut_smth = 1.0;
    c.ntypes = ntypes;
    c.sel.assign(ntypes, 24);
    c.embed_widths = {4, 8, 16};
    c.axis_neuron = 4;
    c.fit_widths = {16, 16, 16};
    return c;
  }
};

}  // namespace dp::core
