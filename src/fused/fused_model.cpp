#include "fused/fused_model.hpp"

#include <omp.h>

#include <algorithm>

#include "common/cost.hpp"
#include "common/simd.hpp"
#include "common/team.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace dp::fused {

using core::ModelConfig;

FusedDP::FusedDP(const tab::TabulatedDP& tabulated, FusedOptions opts)
    : tab_(tabulated), opts_(opts) {}

void FusedDP::prepare(std::size_t n) {
  const ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  atom_energy_.resize(n);
  scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  for (ThreadScratch& sc : scratch_) sc.fit.prepare(cfg.ntypes, m);
}

std::size_t FusedDP::workspace_bytes() const {
  std::size_t b = env_.storage_bytes() + env_ws_.bytes() + prod_ws_.bytes() +
                  atom_energy_.capacity() * sizeof(double) +
                  scratch_.capacity() * sizeof(ThreadScratch);
  for (const ThreadScratch& sc : scratch_) b += sc.bytes();
  return b;
}

md::ForceResult FusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                 const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("fused.compute", "kernel");
  const core::DPModel& model = tab_.model();
  const ModelConfig& cfg = model.config();
  {
    ScopedTimer t("fused.env_mat", "kernel");
    build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, opts_.env_kernel, periodic);
  }
  const std::size_t n = env_.n_atoms;
  const std::size_t m = cfg.m();
  const std::size_t m_sub = cfg.axis_neuron;
  const int nm = cfg.nm();
  const double scale = 1.0 / static_cast<double>(nm);
  prepare(n);

  std::size_t slots_processed = 0;
  std::size_t fit_blocks = 0;
  double energy_total = 0.0;

  {
    ScopedTimer timer_desc("fused.descriptor", "kernel");
    // BuildTeam, not `#pragma omp parallel`: the zero-suppression TSan floor
    // (common/team.hpp) — libgomp's reduction write-back on the region's
    // capture frame is invisible to TSan. Partials live in ThreadScratch
    // and fold on the master in ascending thread order.
    const int team_size = static_cast<int>(scratch_.size());
    BuildTeam& team = BuildTeam::team();
    auto body = [&](int tid, int T) {
      // Per-thread scratch: the pending fitting blocks — persistent
      // members, nothing allocated per call. The embedding rows live only
      // in the fused kernels' registers.
      ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
      // Counted in a register and stored once: a store per slot into the
      // shared scratch_ array cost the descriptor up to a third, depending on
      // where the heap placed that array.
      std::size_t slots = 0;
      sc.energy_partial = 0.0;
      const std::size_t i_begin = chunk_bound(n, tid, T);
      const std::size_t i_end = chunk_bound(n, tid + 1, T);
      const auto limit_of = [&](std::size_t i, int ty) {
        return static_cast<std::size_t>((env_.compact() || opts_.skip_padding)
                                            ? env_.count(i, ty)
                                            : cfg.sel[static_cast<std::size_t>(ty)]);
      };

      // ---- Pass 2: re-walk each slot run with the derivative, fusing
      // dE/dR~ and dE/ds over the rows it has just read (the rows become
      // their own gradients; dp/env_mat.hpp) ------------------------------
      const auto pass2 = [&](std::size_t i, std::size_t, const double* g_a) {
        for (int ty = 0; ty < cfg.ntypes; ++ty) {
          double* rows = env_.rmat.data() + env_.block_begin(i, ty) * 4;
          tab_.table_pair(atoms.type[i], ty).contract_gradient(rows, limit_of(i, ty), g_a, rows);
        }
        // Dense layout without skip_padding walked the padded tails above;
        // their rows took gradients too (and are never read by the scatter,
        // which walks counts only).
      };

      for (std::size_t i = i_begin; i < i_end; ++i) {
        const int ct = atoms.type[i];
        const std::size_t slot = sc.fit.push(ct, i);
        double* a_mat = sc.fit.a_mat(ct, slot);

        // ---- Pass 1: fused tabulate + rank-1 contraction (Fig 4 (c)) -----
        for (int ty = 0; ty < cfg.ntypes; ++ty) {
          const std::size_t limit = limit_of(i, ty);
          tab_.table_pair(ct, ty).contract(env_.rmat_at(env_.block_begin(i, ty)), limit, a_mat);
          slots += limit;
        }
        for (std::size_t k = 0; k < 4 * m; ++k) a_mat[k] *= scale;

        // ---- Descriptor + fitting net, one batched call per full block ---
        if (sc.fit.full(ct))
          sc.fit.flush(ct, model.fitting(ct), m_sub, scale, atom_energy_.data(), pass2);
      }
      for (int t = 0; t < cfg.ntypes; ++t)
        sc.fit.flush(t, model.fitting(t), m_sub, scale, atom_energy_.data(), pass2);
      // Energies in ascending atom order, as the one-atom loop summed them.
      for (std::size_t i = i_begin; i < i_end; ++i) sc.energy_partial += atom_energy_[i];
      sc.slots_partial = slots;
    };
    team.run(team_size, BodyRef(body));
    for (const ThreadScratch& sc : scratch_) {
      slots_processed += sc.slots_partial;
      fit_blocks += sc.fit.blocks();
      energy_total += sc.energy_partial;
    }
  }
  core::record_fit_block_cost(model.fitting(0), n, fit_blocks);

  slots_processed_ = slots_processed;
  slots_total_ = n * static_cast<std::size_t>(nm);
  {
    static obs::Counter& slots_metric =
        obs::MetricsRegistry::instance().counter("fused.slots_processed");
    static obs::Gauge& padding_metric =
        obs::MetricsRegistry::instance().gauge("fused.padding_fraction");
    static obs::Counter& bytes_saved_metric =
        obs::MetricsRegistry::instance().counter("fused.bytes_saved");
    slots_metric.inc(slots_processed);
    padding_metric.set(env_.padding_fraction());
    if (env_.compact()) {
      // The dense env payload plus its padded g_rmat rows, against the CSR,
      // whose rows hold the gradient too; clamped — tiny systems can spend
      // more on the prefix than the padding they avoid.
      const std::size_t dense = env_.dense_bytes() + slots_total_ * 4 * sizeof(double);
      const std::size_t compact = env_.compact_bytes();
      if (dense > compact) bytes_saved_metric.inc(dense - compact);
    }
  }
  CostRegistry::instance().add(
      "fused.descriptor",
      {static_cast<double>(slots_processed) * simd::kFusedPassFlops * static_cast<double>(m),
       static_cast<double>(slots_processed) * 12.0 * static_cast<double>(m) * sizeof(double),
       static_cast<double>(slots_processed) * 4.0 * sizeof(double)});

  md::ForceResult out;
  out.energy = energy_total;
  {
    ScopedTimer t("fused.prod_force", "kernel");
    atoms.zero_forces();
    prod_force_virial(env_, env_.rmat.data(), box, atoms, periodic, atoms.force, out.virial,
                      prod_ws_);
  }
  return out;
}

}  // namespace dp::fused
