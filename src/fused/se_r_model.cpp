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
  for (ThreadScratch& sc : scratch_) {
    sc.d_rows.resize(ntypes);
    for (auto& d : sc.d_rows) d.resize(nn::kFitBlock * m);
    sc.row_atom.resize(ntypes);
    sc.rows.assign(ntypes, 0);
    sc.blocks = 0;
  }
}

md::ForceResult SeRFusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                    const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("se_r.compute", "kernel");
  const core::DPModel& model = tab_.model();
  const ModelConfig& cfg = model.config();
  {
    ScopedTimer t("se_r.env_mat", "kernel");
    build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, core::EnvMatKernel::Optimized,
                  periodic);
  }

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

    // ---- Pass 2: dE/ds_j = (1/N_m) <g_D, g'(s_j)> into column 0, one
    // derivative walk per slot run; the directional columns are written as
    // explicit zeros (g_rmat_ is a persistent buffer that is never
    // bulk-zeroed). Pass 1 already counted these slots' extrapolations. ---
    const auto pass2 = [&](std::size_t i, const double* g_d) {
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const std::size_t base = env_.block_begin(i, ty);
        const auto limit = static_cast<std::size_t>(env_.count(i, ty));
        double* grad = g_rmat_.data() + base * 4;
        tab_.table_pair(atoms.type[i], ty)
            .contract_gradient(env_.rmat_at(base), limit, g_d, grad, /*unit_weight=*/true,
                               /*count_lookups=*/false);
        for (std::size_t k = 0; k < limit; ++k) grad[4 * k] *= scale;
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
      // dE/dD overwrites D in place: the backward pass never reads the
      // layer-0 input.
      model.fitting(t).backward(sc.fit_ws, d);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = sc.row_atom[ut][r];
        atom_energy_[i] = sc.energy[r];
        pass2(i, d + r * m);
      }
    };

    for (std::size_t i = i_begin; i < i_end; ++i) {
      const int ct = atoms.type[i];
      const auto uct = static_cast<std::size_t>(ct);
      const std::size_t r = sc.rows[uct]++;
      sc.row_atom[uct][r] = i;
      double* d_vec = sc.d_rows[uct].data() + r * m;

      // ---- Pass 1: D = (1/N_m) sum over ALL slots of g(s_j). Real slots
      // take one fused walk per (atom, type) run, summed with unit weight;
      // padded ones contribute the cached g(0) analytically ---------------
      std::memset(d_vec, 0, m * sizeof(double));
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const int limit = env_.count(i, ty);
        tab_.table_pair(ct, ty).contract(env_.rmat_at(env_.block_begin(i, ty)),
                                         static_cast<std::size_t>(limit), d_vec,
                                         /*unit_weight=*/true);
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
  {
    ScopedTimer t("se_r.descriptor", "kernel");
    team.run(team_size, BodyRef(body));
  }
  std::size_t fit_blocks = 0;
  for (const ThreadScratch& sc : scratch_) {
    energy_total += sc.energy_partial;
    fit_blocks += sc.blocks;
  }
  core::record_fit_block_cost(model.fitting(0), n, fit_blocks);

  md::ForceResult out;
  out.energy = energy_total;
  {
    ScopedTimer t("se_r.prod_force", "kernel");
    atoms.zero_forces();
    prod_force_virial(env_, g_rmat_.data(), box, atoms, periodic, atoms.force, out.virial,
                      prod_ws_);
  }
  return out;
}

}  // namespace dp::fused
