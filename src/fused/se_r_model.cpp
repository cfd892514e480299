#include "fused/se_r_model.hpp"

#include <omp.h>

#include <algorithm>
#include <cstring>

#include "common/team.hpp"
#include "common/timer.hpp"
#include "dp/descriptor.hpp"
#include "dp/prod_force.hpp"

namespace dp::fused {

using core::ModelConfig;
using tab::TabulatedEmbedding;

SeRFusedDP::SeRFusedDP(const tab::TabulatedDP& tabulated) : tab_(tabulated) {
  const auto& cfg = tabulated.model().config();
  DP_CHECK_MSG(cfg.descriptor == core::DescriptorKind::SeR,
               "SeRFusedDP needs a model configured with DescriptorKind::SeR");
  // Cache the padding row g(0) of every table.
  for (const TabulatedEmbedding& t : tabulated.tables()) {
    AlignedVector<double> g0(cfg.m());
    t.eval(0.0, g0.data());
    g_zero_.push_back(std::move(g0));
  }
}

void SeRFusedDP::prepare(std::size_t n) {
  const ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  const auto ntypes = static_cast<std::size_t>(cfg.ntypes);
  atom_energy_.resize(n);
  resize_discard(g_rmat_, env_.stored_slots() * 4);
  scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  const auto nm = static_cast<std::size_t>(cfg.nm());
  for (ThreadScratch& sc : scratch_) {
    sc.g_rows.resize(nm * m);
    sc.d_rows.resize(ntypes);
    for (auto& d : sc.d_rows) d.resize(nn::kFitBlock * m);
    sc.dg_rows.resize(ntypes);
    for (auto& dg : sc.dg_rows) dg.resize(nn::kFitBlock * nm * m);
    sc.row_atom.resize(ntypes);
    sc.rows.assign(ntypes, 0);
    sc.blocks = 0;
  }
}

md::ForceResult SeRFusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                    const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("se_r.compute");
  const core::DPModel& model = tab_.model();
  const ModelConfig& cfg = model.config();
  build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, core::EnvMatKernel::Optimized,
                periodic);

  const std::size_t n = env_.n_atoms;
  const std::size_t m = cfg.m();
  const int nm = cfg.nm();
  const double scale = 1.0 / static_cast<double>(nm);
  prepare(n);

  double energy_total = 0.0;

  // BuildTeam, not `#pragma omp parallel` — zero-suppression TSan floor
  // (common/team.hpp); per-thread energy partials fold on the master.
  const int team_size = static_cast<int>(scratch_.size());
  BuildTeam& team = BuildTeam::team();
  auto body = [&](int tid, int T) {
    ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
    sc.energy_partial = 0.0;
    const std::size_t i_begin = chunk_bound(n, tid, T);
    const std::size_t i_end = chunk_bound(n, tid + 1, T);

    // Derivative rows staged by pass 1 for row r of center type t's block.
    const auto staged = [&](std::size_t t, std::size_t r) {
      return sc.dg_rows[t].data() + r * static_cast<std::size_t>(nm) * m;
    };

    // ---- Pass 2: dE/ds_j = (1/N_m) <g_D, g'(s_j)> into column 0, from the
    // derivative rows pass 1 staged; the directional columns are written as
    // explicit zeros (g_rmat_ is a persistent buffer that is never
    // bulk-zeroed) ---------------------------------------------------------
    const auto pass2 = [&](std::size_t i, const double* dg_atom, const double* g_d) {
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const std::size_t base = env_.block_begin(i, ty);
        const double* dg0 = dg_atom + static_cast<std::size_t>(cfg.type_offset(ty)) * m;
        const int limit = env_.count(i, ty);
        for (int k = 0; k < limit; ++k) {
          const double* dg = dg0 + static_cast<std::size_t>(k) * m;
          double acc = 0.0;
#pragma omp simd reduction(+ : acc)
          for (std::size_t b = 0; b < m; ++b) acc += g_d[b] * dg[b];
          double* grow = g_rmat_.data() + (base + static_cast<std::size_t>(k)) * 4;
          grow[0] = acc * scale;
          grow[1] = 0.0;
          grow[2] = 0.0;
          grow[3] = 0.0;
        }
      }
    };

    // ---- Fitting net over center type t's queued D rows: one forward and
    // one backward block, then pass 2 per atom in queue order ------------
    const auto flush = [&](int t) {
      const auto ut = static_cast<std::size_t>(t);
      const std::size_t rows = sc.rows[ut];
      if (rows == 0) return;
      sc.rows[ut] = 0;
      ++sc.blocks;
      double* d = sc.d_rows[ut].data();
      model.fitting(t).forward_block(d, rows, sc.fit_ws, sc.energy.data());
      // dE/dD overwrites D in place: without parameter gradients the
      // backward pass never reads the layer-0 input.
      model.fitting(t).backward(sc.fit_ws, d);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = sc.row_atom[ut][r];
        atom_energy_[i] = sc.energy[r];
        pass2(i, staged(ut, r), d + r * m);
      }
    };

    for (std::size_t i = i_begin; i < i_end; ++i) {
      const int ct = atoms.type[i];
      const auto uct = static_cast<std::size_t>(ct);
      const std::size_t r = sc.rows[uct]++;
      sc.row_atom[uct][r] = i;
      double* d_vec = sc.d_rows[uct].data() + r * m;
      double* dg_atom = staged(uct, r);

      // ---- Pass 1: D = (1/N_m) sum over ALL slots of g(s_j). Real slots
      // take one batched table walk per (atom, type) run, which also stages
      // g'(s_j) for pass 2; padded ones contribute the cached g(0)
      // analytically ----------------------------------------------------
      std::memset(d_vec, 0, m * sizeof(double));
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const TabulatedEmbedding& table = tab_.table_pair(ct, ty);
        const std::size_t base = env_.block_begin(i, ty);
        const int limit = env_.count(i, ty);
        if (limit > 0)
          table.eval_with_deriv_batch(
              env_.rmat_at(base), 4, static_cast<std::size_t>(limit), sc.g_rows.data(),
              dg_atom + static_cast<std::size_t>(cfg.type_offset(ty)) * m, m);
        for (int k = 0; k < limit; ++k) {
          const double* g = sc.g_rows.data() + static_cast<std::size_t>(k) * m;
#pragma omp simd
          for (std::size_t b = 0; b < m; ++b) d_vec[b] += g[b];
        }
        const double n_padded =
            static_cast<double>(cfg.sel[static_cast<std::size_t>(ty)] - limit);
        const auto& g0 = g_zero_[model.pair_index(ct, ty)];
#pragma omp simd
        for (std::size_t b = 0; b < m; ++b) d_vec[b] += n_padded * g0[b];
      }
      for (std::size_t b = 0; b < m; ++b) d_vec[b] *= scale;

      if (sc.rows[uct] == nn::kFitBlock) flush(ct);
    }
    for (int t = 0; t < cfg.ntypes; ++t) flush(t);
    // Energies in ascending atom order, as the one-atom loop summed them.
    for (std::size_t i = i_begin; i < i_end; ++i) sc.energy_partial += atom_energy_[i];
  };
  team.run(team_size, BodyRef(body));
  std::size_t fit_blocks = 0;
  for (const ThreadScratch& sc : scratch_) {
    energy_total += sc.energy_partial;
    fit_blocks += sc.blocks;
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
