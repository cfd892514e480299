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
  const std::size_t m = tab_.model().config().m();
  atom_energy_.resize(n);
  g_rmat_.resize(env_.stored_slots() * 4);
  scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  for (ThreadScratch& sc : scratch_) {
    sc.g_row.resize(m);
    sc.dg_row.resize(m);
    sc.d_vec.resize(m);
    sc.g_d.resize(m);
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
    for (std::size_t i = i_begin; i < i_end; ++i) {
      // ---- Pass 1: D = (1/N_m) sum over ALL slots of g(s_j); real slots
      // are walked, padded ones contribute the cached g(0) analytically ----
      std::memset(sc.d_vec.data(), 0, m * sizeof(double));
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const TabulatedEmbedding& table = tab_.table_pair(atoms.type[i], ty);
        const std::size_t base = env_.block_begin(i, ty);
        const int limit = env_.count(i, ty);
        for (int k = 0; k < limit; ++k) {
          table.eval(env_.rmat_at(base + static_cast<std::size_t>(k))[0], sc.g_row.data());
#pragma omp simd
          for (std::size_t b = 0; b < m; ++b) sc.d_vec[b] += sc.g_row[b];
        }
        const double n_padded =
            static_cast<double>(cfg.sel[static_cast<std::size_t>(ty)] - limit);
        const auto& g0 = g_zero_[model.pair_index(atoms.type[i], ty)];
#pragma omp simd
        for (std::size_t b = 0; b < m; ++b) sc.d_vec[b] += n_padded * g0[b];
      }
      for (double& v : sc.d_vec) v *= scale;

      const int ct = atoms.type[i];
      const double e_i = model.fitting(ct).forward(sc.d_vec.data(), sc.fit_ws);
      atom_energy_[i] = e_i;
      sc.energy_partial += e_i;
      model.fitting(ct).backward(sc.fit_ws, sc.g_d.data());

      // ---- Pass 2: dE/ds_j = (1/N_m) <g_D, g'(s_j)> into column 0; the
      // directional columns are written as explicit zeros (g_rmat_ is a
      // persistent buffer that is never bulk-zeroed) ----------------------
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const TabulatedEmbedding& table = tab_.table_pair(atoms.type[i], ty);
        const std::size_t base = env_.block_begin(i, ty);
        const int limit = env_.count(i, ty);
        for (int k = 0; k < limit; ++k) {
          const std::size_t slot = base + static_cast<std::size_t>(k);
          table.eval_with_deriv(env_.rmat_at(slot)[0], sc.g_row.data(), sc.dg_row.data());
          double acc = 0.0;
#pragma omp simd reduction(+ : acc)
          for (std::size_t b = 0; b < m; ++b) acc += sc.g_d[b] * sc.dg_row[b];
          double* grow = g_rmat_.data() + slot * 4;
          grow[0] = acc * scale;
          grow[1] = 0.0;
          grow[2] = 0.0;
          grow[3] = 0.0;
        }
      }
    }
  };
  team.run(team_size, BodyRef(body));
  for (const ThreadScratch& sc : scratch_) energy_total += sc.energy_partial;
  // se_r evaluates its (M-input) fitting net one row at a time.
  core::record_fit_block_cost(model.fitting(0), n, n);

  md::ForceResult out;
  out.energy = energy_total;
  atoms.zero_forces();
  prod_force_virial(env_, g_rmat_.data(), box, atoms, periodic, atoms.force, out.virial,
                    prod_ws_);
  return out;
}

}  // namespace dp::fused
