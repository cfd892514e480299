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
using tab::TabulatedEmbedding;

FusedDP::FusedDP(const tab::TabulatedDP& tabulated, FusedOptions opts)
    : tab_(tabulated), opts_(opts) {}

void FusedDP::prepare(std::size_t n) {
  const ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  atom_energy_.resize(n);
  resize_discard(g_rmat_, env_.stored_slots() * 4);
  scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  for (ThreadScratch& sc : scratch_) {
    sc.g_row.resize(m);
    sc.dg_row.resize(m);
    sc.fit.prepare(cfg.ntypes, m);
    if (opts_.cache_rows)
      sc.row_cache.resize(static_cast<std::size_t>(cfg.ntypes) * nn::kFitBlock *
                          static_cast<std::size_t>(cfg.nm()) * 2 * m);
  }
}

std::size_t FusedDP::workspace_bytes() const {
  std::size_t b = env_.storage_bytes() + env_ws_.bytes() + prod_ws_.bytes() +
                  g_rmat_.capacity() * sizeof(double) +
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
    // SIMD level resolved once per compute(), outside the team (same pattern
    // as prod_force): every thread runs the same kernel instance.
    const auto slot_gradient = simd::pick_slot_gradient<double>(simd::active());
    const auto rank1_update = simd::pick_rank1<double>(simd::active());
    const std::size_t cache_per_atom = static_cast<std::size_t>(nm) * 2 * m;
    BuildTeam& team = BuildTeam::team();
    auto body = [&](int tid, int T) {
      // Per-thread scratch: one embedding row + its derivative (the
      // "registers" of the CUDA kernel) and the pending fitting blocks —
      // persistent members, nothing allocated per call.
      ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
      // Counted in a register and stored once: a store per slot into the
      // shared scratch_ array cost the descriptor up to a third, depending on
      // where the heap placed that array.
      std::size_t slots = 0;
      sc.energy_partial = 0.0;
      const std::size_t i_begin = chunk_bound(n, tid, T);
      const std::size_t i_end = chunk_bound(n, tid + 1, T);
      const auto limit_of = [&](std::size_t i, int ty) {
        return (env_.compact() || opts_.skip_padding) ? env_.count(i, ty)
                                                      : cfg.sel[static_cast<std::size_t>(ty)];
      };
      // With cache_rows the staged rows of every atom waiting in a fitting
      // block stay live until its pass 2: one cache slot per (type, slot).
      const auto atom_cache = [&](int ct, std::size_t slot) {
        return sc.row_cache.data() +
               (static_cast<std::size_t>(ct) * nn::kFitBlock + slot) * cache_per_atom;
      };

      // ---- Pass 2: re-walk slots, fuse dE/dR~ and dE/ds ------------------
      const auto pass2 = [&](std::size_t i, std::size_t slot, const double* g_a) {
        for (int ty = 0; ty < cfg.ntypes; ++ty) {
          const TabulatedEmbedding& table = tab_.table_pair(atoms.type[i], ty);
          const std::size_t base = env_.block_begin(i, ty);
          const int off = cfg.type_offset(ty);
          const int limit = limit_of(i, ty);
          for (int k = 0; k < limit; ++k) {
            const std::size_t s = base + static_cast<std::size_t>(k);
            const double* rrow = env_.rmat_at(s);
            const double* row = sc.g_row.data();
            const double* drow = sc.dg_row.data();
            if (opts_.cache_rows) {
              row = atom_cache(atoms.type[i], slot) + static_cast<std::size_t>(off + k) * 2 * m;
              drow = row + m;
            } else {
              table.eval_with_deriv(rrow[0], sc.g_row.data(), sc.dg_row.data());
            }
            slot_gradient(rrow, row, drow, g_a, m, g_rmat_.data() + s * 4);
          }
        }
        // Dense layout without skip_padding walked the padded tails above;
        // their g_rmat rows were written too (and are never read by the
        // scatter, which walks counts only).
      };

      for (std::size_t i = i_begin; i < i_end; ++i) {
        const int ct = atoms.type[i];
        const std::size_t slot = sc.fit.push(ct, i);
        double* a_mat = sc.fit.a_mat(ct, slot);

        // ---- Pass 1: fused tabulate + rank-1 contraction ----------------
        for (int ty = 0; ty < cfg.ntypes; ++ty) {
          const TabulatedEmbedding& table = tab_.table_pair(ct, ty);
          const std::size_t base = env_.block_begin(i, ty);
          const int off = cfg.type_offset(ty);
          const int limit = limit_of(i, ty);
          // With cache_rows, one table walk per slot stages value +
          // derivative for pass 2, batched over the slot run: the s values
          // sit in the first column of the contiguous env-matrix rows
          // (stride 4), the cache rows are value/derivative pairs (stride
          // 2M), indexed by the dense in-atom offset in both layouts.
          double* cache0 = opts_.cache_rows
                               ? atom_cache(ct, slot) + static_cast<std::size_t>(off) * 2 * m
                               : nullptr;
          if (cache0 != nullptr && limit > 0)
            table.eval_with_deriv_batch(env_.rmat_at(base), 4, static_cast<std::size_t>(limit),
                                        cache0, cache0 + m, 2 * m);
          for (int k = 0; k < limit; ++k) {
            const double* rrow = env_.rmat_at(base + static_cast<std::size_t>(k));
            const double* row = sc.g_row.data();
            if (cache0 != nullptr)
              row = cache0 + static_cast<std::size_t>(k) * 2 * m;
            else
              table.eval(rrow[0], sc.g_row.data());
            // outer-product update: A_c += rrow[c] * row (Fig 4 (c))
            rank1_update(rrow, row, m, a_mat);
          }
          slots += static_cast<std::size_t>(limit);
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
      // Env payload saved by the CSR plus the padded g_rmat rows never
      // materialized; clamped — tiny systems can spend more on the prefix
      // than the padding they avoid.
      const std::size_t dense = env_.dense_bytes() + slots_total_ * 4 * sizeof(double);
      const std::size_t compact =
          env_.compact_bytes() + env_.stored_slots() * 4 * sizeof(double);
      if (dense > compact) bytes_saved_metric.inc(dense - compact);
    }
  }
  CostRegistry::instance().add(
      "fused.descriptor",
      {static_cast<double>(slots_processed) * 47.0 * static_cast<double>(m),
       static_cast<double>(slots_processed) * 12.0 * static_cast<double>(m) * sizeof(double),
       static_cast<double>(slots_processed) * 4.0 * sizeof(double)});

  md::ForceResult out;
  out.energy = energy_total;
  {
    ScopedTimer t("fused.prod_force", "kernel");
    atoms.zero_forces();
    prod_force_virial(env_, g_rmat_.data(), box, atoms, periodic, atoms.force, out.virial,
                      prod_ws_);
  }
  return out;
}

}  // namespace dp::fused
