// An independent reference for the compact environment matrix: the build as
// it was written before the count and fill passes were split. Per atom it
// gathers every in-cutoff candidate with its displacement, std::sorts them
// by (r^2, atom), caps each type at sel[] and fills the atom's blocks
// directly, one atom after another on one thread. The production build
// must reproduce its bytes at every thread count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "dp/env_mat.hpp"
#include "dp/switch_fn.hpp"

namespace dp::env_ref {

/// One neighbor candidate: squared distance, index and minimum-image
/// displacement, ordered the way slots are (distance, then index).
struct EnvCandidate {
  double r2;
  int atom;
  Vec3 d;
  bool operator<(const EnvCandidate& o) const {
    return r2 != o.r2 ? r2 < o.r2 : atom < o.atom;
  }
};

struct CompactReference {
  std::vector<int> count_by_type;
  std::vector<std::size_t> block_start{0};
  std::vector<double> rmat, deriv, diff;
  std::vector<int> slot_atom;
  std::size_t overflow = 0;
};

/// The 4 rmat entries s(r) (1, u) and the 12 derivative entries of one slot.
inline void fill_slot(double* rrow, double* drow, const Vec3& d, double r2, double rcut_smth,
                      double rcut) {
  const double r = std::sqrt(r2);
  const auto sw = core::switch_fn(r, rcut_smth, rcut);
  const double inv_r = 1.0 / r;
  const Vec3 u = d * inv_r;
  rrow[0] = sw.s;
  rrow[1] = sw.s * u.x;
  rrow[2] = sw.s * u.y;
  rrow[3] = sw.s * u.z;
  drow[0] = sw.ds_dr * u.x;
  drow[1] = sw.ds_dr * u.y;
  drow[2] = sw.ds_dr * u.z;
  const double s_over_r = sw.s * inv_r;
  const double uk[3] = {u.x, u.y, u.z};
  for (int k = 0; k < 3; ++k)
    for (int l = 0; l < 3; ++l) {
      const double kron = (k == l) ? 1.0 : 0.0;
      drow[3 * (k + 1) + l] = sw.ds_dr * uk[k] * uk[l] + s_over_r * (kron - uk[k] * uk[l]);
    }
}

inline CompactReference build_compact_reference(const core::ModelConfig& cfg,
                                                const md::Box& box, const md::Atoms& atoms,
                                                const md::NeighborList& nlist,
                                                bool periodic = true) {
  CompactReference ref;
  const std::size_t nt = static_cast<std::size_t>(cfg.ntypes);
  const double rc2 = cfg.rcut * cfg.rcut;
  for (std::size_t i = 0; i < nlist.n_centers(); ++i) {
    std::vector<EnvCandidate> cand;
    for (int j : nlist.neighbors(i)) {
      Vec3 d = atoms.pos[static_cast<std::size_t>(j)] - atoms.pos[i];
      if (periodic) d = box.min_image(d);
      const double r2 = norm2(d);
      if (r2 < rc2 && r2 > 0.0) cand.push_back({r2, j, d});
    }
    std::sort(cand.begin(), cand.end());

    std::vector<int> quota(nt, 0);
    for (const EnvCandidate& c : cand)
      ++quota[static_cast<std::size_t>(atoms.type[static_cast<std::size_t>(c.atom)])];
    std::vector<std::size_t> cursor(nt);
    std::size_t next = ref.block_start.back();
    for (std::size_t ty = 0; ty < nt; ++ty) {
      const int capped = std::min(quota[ty], cfg.sel[ty]);
      ref.overflow += static_cast<std::size_t>(quota[ty] - capped);
      quota[ty] = capped;
      ref.count_by_type.push_back(capped);
      cursor[ty] = next;
      next += static_cast<std::size_t>(capped);
      ref.block_start.push_back(next);
    }
    ref.rmat.resize(next * 4);
    ref.deriv.resize(next * 12);
    ref.diff.resize(next * 3);
    ref.slot_atom.resize(next);
    for (const EnvCandidate& c : cand) {
      const auto ty = static_cast<std::size_t>(atoms.type[static_cast<std::size_t>(c.atom)]);
      if (quota[ty] == 0) continue;
      --quota[ty];
      const std::size_t s = cursor[ty]++;
      fill_slot(ref.rmat.data() + 4 * s, ref.deriv.data() + 12 * s, c.d, c.r2, cfg.rcut_smth,
                cfg.rcut);
      ref.diff[3 * s + 0] = c.d.x;
      ref.diff[3 * s + 1] = c.d.y;
      ref.diff[3 * s + 2] = c.d.z;
      ref.slot_atom[s] = c.atom;
    }
  }
  return ref;
}

}  // namespace dp::env_ref
