// An independent reference for the compact environment matrix: the build as
// it was written before the count and fill passes were split. Per atom it
// gathers every in-cutoff candidate with its displacement, std::sorts them
// by (r^2, atom), caps each type at sel[] and fills the atom's blocks
// directly, one atom after another on one thread, storing each slot's
// displacement and derivative rows too. The production build must reproduce
// its bytes at every thread count; the displacements prod-force recomputes
// from the positions, and the rows it rebuilds from them, must equal the
// stored ones.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/simd.hpp"
#include "dp/env_mat.hpp"
#include "md/atoms.hpp"
#include "md/box.hpp"

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

/// r^2 = |d|^2 by the fma sequence the production rows use.
inline double r2_of(const Vec3& d) { return std::fma(d.z, d.z, std::fma(d.x, d.x, d.y * d.y)); }

/// The 4 rmat entries s(r) (1, u) and the 12 derivative entries of one slot
/// at displacement d, one scalar operation at a time. Each std::fma stands
/// where GCC contracts the textbook expressions on an FMA target; spelled
/// out, the oracle rounds the same in every build and in every surrounding
/// (a contracted copy of these expressions rounded entries 9 and 10 the
/// other way once the code around it changed).
inline void fill_slot(double* rrow, double* drow, const Vec3& d, double rcut_smth,
                      double rcut) {
  const double r = std::sqrt(r2_of(d));
  const double inv_r = 1.0 / r;
  double s = 0.0, ds_dr = 0.0;
  if (r < rcut_smth) {
    s = inv_r;
    ds_dr = -inv_r * inv_r;
  } else if (r < rcut) {
    // w = 1 - 10 x^3 + 15 x^4 - 6 x^5 on x = (r - rs) / (rc - rs)
    const double span = rcut - rcut_smth;
    const double x = (r - rcut_smth) / span;
    const double x2 = x * x;
    const double w = std::fma(x2 * x, std::fma(x, std::fma(-6.0, x, 15.0), -10.0), 1.0);
    const double dw_dx = x2 * std::fma(x, std::fma(-30.0, x, 60.0), -30.0);
    s = w * inv_r;
    ds_dr = std::fma(dw_dx / span, inv_r, -(s * inv_r));
  }
  const double s_over_r = s * inv_r;
  const double u[3] = {d.x * inv_r, d.y * inv_r, d.z * inv_r};
  rrow[0] = s;
  for (int k = 0; k < 3; ++k) rrow[k + 1] = s * u[k];
  // c = 0: d s / d d_l = s' u_l
  for (int l = 0; l < 3; ++l) drow[l] = ds_dr * u[l];
  // c = k: d (s u_k) / d d_l = s' u_k u_l + (s/r) (delta_kl - u_k u_l)
  for (int k = 0; k < 3; ++k)
    for (int l = 0; l < 3; ++l)
      drow[3 * (k + 1) + l] =
          std::fma(drow[k], u[l], s_over_r * std::fma(-u[k], u[l], k == l ? 1.0 : 0.0));
}

/// The displacement d = r_j - r_i (minimum image when periodic) of every
/// stored slot of a compact matrix, recomputed from the positions the way
/// prod-force recomputes it: 3 per slot, in slot order.
inline std::vector<double> displacements(const core::EnvMat& env, const md::Box& box,
                                         const md::Atoms& atoms, bool periodic = true) {
  std::vector<double> d(3 * env.stored_slots());
  for (std::size_t i = 0; i < env.n_atoms; ++i)
    for (int t = 0; t < env.ntypes; ++t)
      for (int k = 0; k < env.count(i, t); ++k) {
        const std::size_t s = env.block_begin(i, t) + static_cast<std::size_t>(k);
        Vec3 v = atoms.pos[static_cast<std::size_t>(env.atom_of(s))] - atoms.pos[i];
        if (periodic) v = box.min_image(v);
        d[3 * s + 0] = v.x;
        d[3 * s + 1] = v.y;
        d[3 * s + 2] = v.z;
      }
  return d;
}

/// The derivative rows of every stored slot of a compact matrix, rebuilt
/// from its recomputed displacements the way prod-force rebuilds them.
inline std::vector<double> rebuilt_deriv(const core::EnvMat& env, const md::Box& box,
                                         const md::Atoms& atoms, bool periodic = true) {
  const std::size_t slots = env.stored_slots();
  const std::vector<double> d = displacements(env, box, atoms, periodic);
  std::vector<double> rmat(4 * slots), deriv(12 * slots);
  simd::pick_env_rows(simd::active())(d.data(), slots, env.rcut_smth, env.rcut, rmat.data(),
                                      deriv.data());
  return deriv;
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
      const double r2 = r2_of(d);
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
      fill_slot(ref.rmat.data() + 4 * s, ref.deriv.data() + 12 * s, c.d, cfg.rcut_smth, cfg.rcut);
      ref.diff[3 * s + 0] = c.d.x;
      ref.diff[3 * s + 1] = c.d.y;
      ref.diff[3 * s + 2] = c.d.z;
      ref.slot_atom[s] = c.atom;
    }
  }
  return ref;
}

}  // namespace dp::env_ref
