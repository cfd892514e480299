#include "fused/mixed_model.hpp"

#include <omp.h>

#include <algorithm>
#include <cstring>

#include "common/simd.hpp"
#include "common/team.hpp"
#include "common/timer.hpp"
#include "dp/descriptor.hpp"
#include "dp/prod_force.hpp"

namespace dp::fused {

using core::ModelConfig;

MixedFusedDP::MixedFusedDP(const tab::TabulatedDP& tabulated, MixedPrecision precision)
    : tab_(tabulated), precision_(precision) {
  for (const tab::TabulatedEmbedding& t : tabulated.tables()) {
    if (precision_ == MixedPrecision::Single)
      tables_sp_.emplace_back(t);
    else
      tables_hp_.emplace_back(t);
  }
}

std::size_t MixedFusedDP::table_bytes() const {
  std::size_t b = 0;
  for (const auto& t : tables_sp_) b += t.bytes();
  for (const auto& t : tables_hp_) b += t.bytes();
  return b;
}

void MixedFusedDP::eval_table_batch(std::size_t idx, const float* s, std::size_t count,
                                    float* g, float* dg, std::size_t out_stride) const {
  if (precision_ == MixedPrecision::Single)
    tables_sp_[idx].eval_with_deriv_batch(s, 1, count, g, dg, out_stride);
  else
    tables_hp_[idx].eval_with_deriv_batch(s, 1, count, g, dg, out_stride);
}

void MixedFusedDP::prepare(std::size_t n) {
  const ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  const std::size_t nm = static_cast<std::size_t>(cfg.nm());
  atom_energy_.resize(n);
  g_rmat_.resize(env_.stored_slots() * 4);
  scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  for (ThreadScratch& sc : scratch_) {
    sc.s_col.resize(nm);
    sc.row_cache.resize(nm * 2 * m);
    sc.a_sp.resize(4 * m);
    sc.ga_sp.resize(4 * m);
    sc.fit.prepare(cfg.ntypes, m);
  }
}

md::ForceResult MixedFusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                      const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("mixed.compute");
  const core::DPModel& model = tab_.model();
  const ModelConfig& cfg = model.config();
  build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, core::EnvMatKernel::Optimized,
                periodic);

  const std::size_t n = env_.n_atoms;
  const std::size_t m = cfg.m();
  const std::size_t m_sub = cfg.axis_neuron;
  const int nm = cfg.nm();
  const double scale = 1.0 / static_cast<double>(nm);
  prepare(n);

  double energy_total = 0.0;
  std::size_t fit_blocks = 0;

  // BuildTeam, not `#pragma omp parallel` — zero-suppression TSan floor
  // (common/team.hpp); per-thread energy partials fold on the master.
  const int team_size = static_cast<int>(scratch_.size());
  // SIMD level resolved once per compute(), outside the team (same pattern
  // as the double fused path): every thread runs the same kernel instances.
  const auto rank1_update = simd::pick_rank1<float>(simd::active());
  const auto slot_gradient = simd::pick_slot_gradient<float>(simd::active());
  BuildTeam& team = BuildTeam::team();
  auto body = [&](int tid, int T) {
    ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
    sc.energy_partial = 0.0;
    const std::size_t i_begin = chunk_bound(n, tid, T);
    const std::size_t i_end = chunk_bound(n, tid + 1, T);

    // One batched blocked table walk of atom i's type-ty slot run (value +
    // derivative rows, stride 2M) into the one-atom row cache; returns the
    // run length. Pass 1 and pass 2 each walk, so the cache never spans a
    // fitting block; the walk is deterministic, so both see the same rows.
    const auto walk = [&](std::size_t i, int ty) {
      const int limit = env_.count(i, ty);
      if (limit > 0) {
        // Stage the float s column (the env rows are contiguous stride-4
        // doubles; the cast is the seed path's cast, slot for slot).
        const double* rbase = env_.rmat_at(env_.block_begin(i, ty));
        for (int k = 0; k < limit; ++k)
          sc.s_col[static_cast<std::size_t>(k)] = static_cast<float>(rbase[4 * k]);
        float* cache0 =
            sc.row_cache.data() + static_cast<std::size_t>(cfg.type_offset(ty)) * 2 * m;
        eval_table_batch(model.pair_index(atoms.type[i], ty), sc.s_col.data(),
                         static_cast<std::size_t>(limit), cache0, cache0 + m, 2 * m);
      }
      return limit;
    };

    // ---- Pass 2 in single precision, accumulated into double: re-walk the
    // atom's tables into the row cache, then the per-slot gradient dots. ---
    const auto pass2 = [&](std::size_t i, std::size_t, const double* g_a) {
      for (std::size_t k = 0; k < 4 * m; ++k) sc.ga_sp[k] = static_cast<float>(g_a[k]);
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const int limit = walk(i, ty);
        const std::size_t base = env_.block_begin(i, ty);
        const int off = cfg.type_offset(ty);
        for (int k = 0; k < limit; ++k) {
          const std::size_t s = base + static_cast<std::size_t>(k);
          const double* rrow = env_.rmat_at(s);
          const float r[4] = {static_cast<float>(rrow[0]), static_cast<float>(rrow[1]),
                              static_cast<float>(rrow[2]), static_cast<float>(rrow[3])};
          const float* row =
              sc.row_cache.data() + static_cast<std::size_t>(off + k) * 2 * m;
          slot_gradient(r, row, row + m, sc.ga_sp.data(), m, g_rmat_.data() + s * 4);
        }
      }
    };

    for (std::size_t i = i_begin; i < i_end; ++i) {
      std::memset(sc.a_sp.data(), 0, 4 * m * sizeof(float));

      // ---- Pass 1 in single precision: the batched table walk per slot
      // run, then the rank-1 contraction over the cached value rows. -------
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const int limit = walk(i, ty);
        const std::size_t base = env_.block_begin(i, ty);
        const int off = cfg.type_offset(ty);
        for (int k = 0; k < limit; ++k) {
          const double* rrow = env_.rmat_at(base + static_cast<std::size_t>(k));
          const float r[4] = {static_cast<float>(rrow[0]), static_cast<float>(rrow[1]),
                              static_cast<float>(rrow[2]), static_cast<float>(rrow[3])};
          const float* row =
              sc.row_cache.data() + static_cast<std::size_t>(off + k) * 2 * m;
          rank1_update(r, row, m, sc.a_sp.data());
        }
      }
      // ---- Descriptor + fitting in double, one batched call per block ---
      const int ct = atoms.type[i];
      double* a_mat = sc.fit.a_mat(ct, sc.fit.push(ct, i));
      for (std::size_t k = 0; k < 4 * m; ++k)
        a_mat[k] = static_cast<double>(sc.a_sp[k]) * scale;
      if (sc.fit.full(ct))
        sc.fit.flush(ct, model.fitting(ct), m_sub, scale, atom_energy_.data(), pass2);
    }
    for (int t = 0; t < cfg.ntypes; ++t)
      sc.fit.flush(t, model.fitting(t), m_sub, scale, atom_energy_.data(), pass2);
    // Energies in ascending atom order, as the one-atom loop summed them.
    for (std::size_t i = i_begin; i < i_end; ++i) sc.energy_partial += atom_energy_[i];
  };
  team.run(team_size, BodyRef(body));
  for (const ThreadScratch& sc : scratch_) {
    energy_total += sc.energy_partial;
    fit_blocks += sc.fit.blocks();
  }
  core::record_fit_block_cost(model.fitting(0), n, fit_blocks);

  md::ForceResult out;
  out.energy = energy_total;
  atoms.zero_forces();
  prod_force_virial(env_, g_rmat_.data(), box, atoms, periodic, atoms.force, out.virial,
                    prod_ws_);
  return out;
}

}  // namespace dp::fused
