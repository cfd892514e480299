#include "fused/mixed_model.hpp"

#include <omp.h>

#include <algorithm>
#include <cstring>

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

void MixedFusedDP::prepare(std::size_t n) {
  const ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  atom_energy_.resize(n);
  scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  for (ThreadScratch& sc : scratch_) {
    sc.a_sp.resize(4 * m);
    sc.ga_sp.resize(4 * m);
    sc.fit.prepare(cfg.ntypes, m);
  }
}

std::size_t MixedFusedDP::workspace_bytes() const {
  std::size_t b = env_.storage_bytes() + env_ws_.bytes() + prod_ws_.bytes() +
                  atom_energy_.capacity() * sizeof(double) +
                  scratch_.capacity() * sizeof(ThreadScratch);
  for (const ThreadScratch& sc : scratch_)
    b += (sc.a_sp.capacity() + sc.ga_sp.capacity()) * sizeof(float) + sc.fit.bytes();
  return b;
}

md::ForceResult MixedFusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                      const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("mixed.compute", "kernel");
  const core::DPModel& model = tab_.model();
  const ModelConfig& cfg = model.config();
  {
    ScopedTimer t("mixed.env_mat", "kernel");
    build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, core::EnvMatKernel::Optimized,
                  periodic);
  }

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
  BuildTeam& team = BuildTeam::team();
  auto body = [&](int tid, int T) {
    ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
    sc.energy_partial = 0.0;
    const std::size_t i_begin = chunk_bound(n, tid, T);
    const std::size_t i_end = chunk_bound(n, tid + 1, T);

    // ---- Pass 2 in single precision, accumulated into double: re-walk each
    // slot run with the derivative, straight into the gradient dots, whose
    // results overwrite the rows just read (dp/env_mat.hpp). ---------------
    const auto pass2 = [&](std::size_t i, std::size_t, const double* g_a) {
      for (std::size_t k = 0; k < 4 * m; ++k) sc.ga_sp[k] = static_cast<float>(g_a[k]);
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        double* rows = env_.rmat.data() + env_.block_begin(i, ty) * 4;
        const auto limit = static_cast<std::size_t>(env_.count(i, ty));
        on_table(model.pair_index(atoms.type[i], ty), [&](const auto& table) {
          table.contract_gradient(rows, limit, sc.ga_sp.data(), rows);
        });
      }
    };

    for (std::size_t i = i_begin; i < i_end; ++i) {
      std::memset(sc.a_sp.data(), 0, 4 * m * sizeof(float));

      // ---- Pass 1 in single precision: the fused walk + rank-1
      // contraction of each slot run into A_sp. ---------------------------
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const double* rmat = env_.rmat_at(env_.block_begin(i, ty));
        const auto limit = static_cast<std::size_t>(env_.count(i, ty));
        on_table(model.pair_index(atoms.type[i], ty),
                 [&](const auto& table) { table.contract(rmat, limit, sc.a_sp.data()); });
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
  {
    ScopedTimer t("mixed.descriptor", "kernel");
    team.run(team_size, BodyRef(body));
  }
  for (const ThreadScratch& sc : scratch_) {
    energy_total += sc.energy_partial;
    fit_blocks += sc.fit.blocks();
  }
  core::record_fit_block_cost(model.fitting(0), n, fit_blocks);

  md::ForceResult out;
  out.energy = energy_total;
  {
    ScopedTimer t("mixed.prod_force", "kernel");
    atoms.zero_forces();
    prod_force_virial(env_, env_.rmat.data(), box, atoms, periodic, atoms.force, out.virial,
                      prod_ws_);
  }
  return out;
}

}  // namespace dp::fused
