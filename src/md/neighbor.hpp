// Cell-list based Verlet neighbor list (full lists, as the DP model needs
// every neighbor of every atom).
//
// Follows the paper's protocol (Sec 4): lists are built with a skin ("2 A
// buffer region") on top of the model cutoff and rebuilt every
// `rebuild_every` steps; the skin/2 displacement criterion is checked so a
// too-fast atom can never silently escape the list.
//
// Construction is thread-parallel (team size follows OMP_NUM_THREADS /
// omp_set_num_threads, but dispatch uses an in-tree mutex/condvar fork-join
// team so every synchronization edge is sanitizer-visible — see
// docs/STATIC_ANALYSIS.md) and deterministic: binning is a two-pass
// counting sort with per-thread histograms, the stencil walk is a
// count-then-fill scheme (per-center counts -> exclusive scan -> each
// thread copies its cached neighbors into its disjoint slab of `list_`),
// so the output CSR is byte-identical to the single-thread build at any
// thread count. All scratch lives in a persistent, grow-only
// NeighborWorkspace owned by the list: after warm-up, rebuilds allocate
// nothing (enforced by the `neighbor-workspace` dplint rule and measured
// through the `neighbor.workspace_bytes` gauge).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "md/box.hpp"

namespace dp::md {

/// Persistent scratch for NeighborList::build* — grow-only, reused across
/// rebuilds so steady-state construction performs zero allocations. One
/// workspace per list instance; a NeighborList (and thus its workspace) is
/// owned by exactly one thread at a time (see docs/STATIC_ANALYSIS.md).
struct NeighborWorkspace {
  std::vector<int> atom_cell;   ///< cell index of every atom (ghosts incl.)
  std::vector<int> cell_start;  ///< CSR over cells: ncells + 1
  std::vector<int> cell_atoms;  ///< atoms sorted by cell, stable by index
  std::vector<int> hist;        ///< per-thread cell histograms (T * ncells)
  std::vector<std::vector<int>> tl;  ///< per-thread neighbor caches
  std::vector<int> half_offsets;     ///< build_half filter output scratch
  std::vector<int> half_list;

  /// Bytes currently reserved (capacities, not sizes).
  std::size_t bytes() const;
};

class NeighborList {
 public:
  /// cutoff = model cutoff + skin.
  NeighborList(double cutoff, double skin = 2.0) : rc_(cutoff), skin_(skin) {}

  /// Builds full lists for the first `n_centers` atoms (default: all) against
  /// every atom in `pos` (which may include ghost atoms after the centers).
  /// `periodic` selects minimum-image distances (component tests, benches)
  /// or plain Cartesian differences (the MD driver's explicit ghosts).
  void build(const Box& box, const std::vector<Vec3>& pos, std::size_t n_centers = SIZE_MAX,
             bool periodic = true);

  /// Half lists: each pair appears once, on the lower-index atom. Pairwise
  /// potentials exploit Newton's third law with these (half the pair
  /// visits); the DP descriptor needs full lists and must not use this.
  void build_half(const Box& box, const std::vector<Vec3>& pos, bool periodic = true);

  bool is_half() const { return half_; }

  std::size_t n_centers() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  std::span<const int> neighbors(std::size_t i) const {
    return {list_.data() + offsets_[i], static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

  /// Longest list over all centers (the "real N_m" of the current frame).
  std::size_t max_neighbors() const;
  /// Mean list length.
  double mean_neighbors() const;

  /// True once some of the first `n_check` atoms (default: all) moved more
  /// than skin/2 since the last build(). Distributed ranks check only their
  /// local atoms: every atom is local on exactly one rank, so the
  /// OR-allreduce of the per-rank answers covers ghosts too. Only center
  /// positions are retained from the build (ghosts are never consulted), so
  /// `n_check` is clamped to the build's center count.
  bool needs_rebuild(const Box& box, const std::vector<Vec3>& pos,
                     std::size_t n_check = SIZE_MAX) const;

  double cutoff() const { return rc_; }
  double skin() const { return skin_; }
  double build_cutoff() const { return rc_ + skin_; }

  /// Bytes of persistent storage (workspace + CSR + retained positions),
  /// by capacity. Constant across rebuilds once warm = zero steady-state
  /// allocations; also published as the `neighbor.workspace_bytes` gauge.
  std::size_t workspace_bytes() const;

 private:
  void build_brute(const Box& box, const std::vector<Vec3>& pos, std::size_t n_centers,
                   bool periodic);

  double rc_;
  double skin_;
  bool half_ = false;
  std::vector<int> offsets_;  // CSR: n_centers + 1
  std::vector<int> list_;
  // Center positions at build time (the prefix needs_rebuild consults) plus
  // the full atom count, which stands in for the old whole-vector copy in
  // the staleness guard. Ghost positions are never stored: they are not
  // checked, and at scale they are a large fraction of `pos`.
  std::vector<Vec3> pos_at_build_;
  std::size_t n_atoms_at_build_ = 0;
  bool periodic_ = true;
  NeighborWorkspace ws_;
};

/// O(N^2) reference used by tests and tiny systems.
std::vector<std::vector<int>> brute_force_neighbors(const Box& box,
                                                    const std::vector<Vec3>& pos, double cutoff,
                                                    std::size_t n_centers = SIZE_MAX,
                                                    bool periodic = true);

}  // namespace dp::md
