// Environment-matrix construction — the ProdEnvMatA customized operator
// (paper Sec 3.4.2 / 3.4.3 / 3.5.3).
//
// For every local atom i the operator emits:
//   * rmat  (4 doubles per slot):  rows  s(r) * (1, x/r, y/r, z/r)  (paper
//     Eq. 1), grouped by neighbor type and distance-sorted inside each block;
//   * deriv (12 doubles per slot):  d(rmat row)/d(r_j - r_i)  —
//     `descrpt_a_deriv`, the AoS the SVE conversion kernels operate on
//     (dense layout only; see below);
//   * slot_atom: which atom occupies each slot.
//
// Two kernels, two layouts:
//   * `Baseline` materializes the paper's original DENSE layout — every atom
//     reserves N_m = sum(sel[t]) slots, real neighbors fill a prefix of each
//     type block and the rest is zero padding (the "redundant zeros" of
//     Sec 3.4.2, ~60-80% of the array for copper's sel = 500).
//   * `Optimized` materializes the COMPACT CSR layout: a prefix sum over the
//     real per-(atom, type) neighbor counts assigns each block a contiguous
//     slot range, so rmat/diff/slot_atom store only filled slots and no
//     zeroing traffic is ever issued. A slot keeps its minimum-image
//     displacement (`diff`) instead of its 12 derivative entries: 60 B, not
//     156. The deriv depends on nothing else, so its one reader, prod-force,
//     rebuilds it in registers (simd::PairGradientsDiffFn) with the same
//     operation sequence that formed rmat (simd::EnvRowsFn): the bits a
//     stored deriv held, none of its bytes (paper Sec 3.4.1: do not
//     materialize what registers can hold). The build is thread-parallel
//     and byte-identical at any thread count: a count pass, a prefix scan,
//     then a fill pass that writes each atom's slots in place (the same
//     count -> scan -> fill discipline as the neighbor-list CSR build).
//
// Both layouts are walked through the same accessors: global slot indices
// from `block_begin(i, t)`, payload via `rmat_at` / `atom_of`, and
// `deriv_at` (dense) or `diff_at` (compact).
// For a dense matrix `block_begin` degenerates to i * nm + type_off[t], so
// layout-aware consumers need no branches in their inner loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dp/model_config.hpp"
#include "md/atoms.hpp"
#include "md/box.hpp"
#include "md/neighbor.hpp"

namespace dp::core {

enum class EnvMatLayout { Dense, Compact };

struct EnvMat {
  EnvMatLayout layout = EnvMatLayout::Dense;
  std::size_t n_atoms = 0;
  int nm = 0;
  int ntypes = 1;
  AlignedVector<double> rmat;   ///< 4 per stored slot (dense: n * nm slots)
  AlignedVector<double> deriv;  ///< dense only: 12 per stored slot
  AlignedVector<double> diff;   ///< compact only: 3 per slot, d = r_j - r_i
  std::vector<int> slot_atom;   ///< per stored slot; -1 = padding (dense only)
  std::vector<int> count_by_type;        ///< n * ntypes: filled slots per block
  std::vector<std::size_t> block_start;  ///< compact: n * ntypes + 1 slot prefix
  std::vector<int> type_off;  ///< ntypes + 1: dense slot offset of each block
  std::size_t overflow = 0;   ///< neighbors dropped because a block was full
  double rcut_smth = 0.0;     ///< compact: the switch the deriv rows are rebuilt with
  double rcut = 0.0;

  bool compact() const { return layout == EnvMatLayout::Compact; }

  /// Global index of the first slot of atom i's type-t block. Valid in both
  /// layouts; slots of the block are contiguous from here (`count(i, t)` of
  /// them are real; dense blocks continue with padding up to sel[t]).
  std::size_t block_begin(std::size_t i, int t) const {
    return compact() ? block_start[i * static_cast<std::size_t>(ntypes) +
                                   static_cast<std::size_t>(t)]
                     : i * static_cast<std::size_t>(nm) +
                           static_cast<std::size_t>(type_off[static_cast<std::size_t>(t)]);
  }
  const double* rmat_at(std::size_t slot) const { return rmat.data() + slot * 4; }
  /// Stored derivative rows. Dense layout only: the compact one rebuilds
  /// them from `diff_at` (simd::pick_env_rows, rcut_smth, rcut).
  const double* deriv_at(std::size_t slot) const { return deriv.data() + slot * 12; }
  /// Minimum-image displacement r_j - r_i carried through the build.
  /// Compact layout only.
  const double* diff_at(std::size_t slot) const { return diff.data() + slot * 3; }
  int atom_of(std::size_t slot) const { return slot_atom[slot]; }
  /// Number of stored slots == rows of the matching g_rmat gradient buffer.
  std::size_t stored_slots() const {
    return compact() ? block_start.back() : n_atoms * static_cast<std::size_t>(nm);
  }

  int count(std::size_t i, int t) const {
    return count_by_type[i * static_cast<std::size_t>(ntypes) + static_cast<std::size_t>(t)];
  }
  /// Real (non-padding) slots across all atoms, valid in both layouts.
  std::size_t filled_slots() const;
  /// Fraction of reserved slots that are padding — the paper's "redundant
  /// zeros". Relative to the dense reservation in both layouts.
  double padding_fraction() const;

  /// Footprint the DENSE layout occupies (or would occupy) for this system:
  /// slot payload plus per-block counts. Published as `env_mat.dense_bytes`.
  std::size_t dense_bytes() const;
  /// Footprint of the COMPACT layout for this system: 60 B per filled slot
  /// (rmat 32, diff 24, slot_atom 4) plus counts and the block prefix.
  /// `env_mat.compact_bytes`.
  std::size_t compact_bytes() const;
  /// Capacity-based bytes actually held by this object (grow-only buffers).
  std::size_t storage_bytes() const;

  // Sizing helpers, out of line so build_env_mat's body issues no direct
  // assign/resize (tools/dplint `env-hot-alloc` keeps it that way). All are
  // grow-only in steady state: resize never shrinks capacity, and only
  // reset_dense pays zero-fill traffic (deliberately — that IS the dense
  // baseline being measured). grow_compact_slots never copies: every build
  // rewrites every slot, so growth frees the stale arrays before allocating
  // larger ones (resize_discard). reset_compact_header releases a deriv
  // array left by an earlier dense build.
  void reset_dense(std::size_t n, const ModelConfig& cfg);
  void reset_compact_header(std::size_t n, const ModelConfig& cfg);
  void grow_compact_slots(std::size_t total);
};

/// Sort key of one compact-build candidate: the bits of r^2 (positive and
/// finite, so the bits order like the value), the neighbor's index, and the
/// candidate's gather position, where its displacement waits. Slots follow
/// (r2, atom) order inside each type block; an atom is listed once, so the
/// order is strict and every correct sort yields the same slots.
struct EnvSortKey {
  std::uint64_t r2;
  std::int32_t atom;
  std::uint32_t idx;
};

/// Persistent scratch of the compact build: one entry per thread, sized by
/// the longest neighbor list of the thread's atom chunk and never by the
/// slot count — slots are written straight into the CSR. Grow-only, so
/// steady-state builds allocate nothing (the same discipline as
/// md::NeighborWorkspace).
struct EnvMatWorkspace {
  struct Scratch {
    std::vector<Vec3> d;                ///< gathered displacements r_j - r_i
    std::vector<EnvSortKey> key;        ///< candidates in gather order
    std::vector<EnvSortKey> sorted;     ///< candidates in slot order
    std::vector<std::uint32_t> bucket;  ///< r^2 bucket offsets of the counting pass
    std::vector<int> seen;              ///< ntypes: candidates met per type
    std::size_t overflow = 0;           ///< drops counted by the current build
    std::size_t mismatched = 0;         ///< blocks the fill pass could not fill to count
    void ensure(std::size_t max_nbrs, int ntypes);
    std::size_t bytes() const;
  };
  std::vector<Scratch> tl;
  void ensure_threads(int team_size);
  std::size_t bytes() const;
};

enum class EnvMatKernel { Baseline, Optimized };

/// Footprint of the most recent build on the CALLING thread. The registry
/// gauges (`env_mat.dense_bytes` / `env_mat.compact_bytes`) are global
/// last-writer-wins; distributed rank threads read these instead, so each
/// rank aggregates its OWN env footprint into the allreduce.
struct EnvMatThreadStats {
  std::size_t dense_bytes = 0;
  std::size_t compact_bytes = 0;
};
const EnvMatThreadStats& env_mat_thread_stats();

/// Builds the environment matrices of the first nlist.n_centers() atoms.
/// `Baseline` emits the dense padded layout, `Optimized` the compact CSR
/// layout; ws is only touched by the compact build.
void build_env_mat(const ModelConfig& cfg, const md::Box& box, const md::Atoms& atoms,
                   const md::NeighborList& nlist, EnvMat& out, EnvMatWorkspace& ws,
                   EnvMatKernel kernel = EnvMatKernel::Optimized, bool periodic = true);

/// Convenience overload with a per-thread persistent workspace — callers
/// that own no EnvMatWorkspace (tests, benches, the training path) stay
/// allocation-free in steady state too.
inline void build_env_mat(const ModelConfig& cfg, const md::Box& box, const md::Atoms& atoms,
                          const md::NeighborList& nlist, EnvMat& out,
                          EnvMatKernel kernel = EnvMatKernel::Optimized, bool periodic = true) {
  static thread_local EnvMatWorkspace ws;
  build_env_mat(cfg, box, atoms, nlist, out, ws, kernel, periodic);
}

}  // namespace dp::core
