#include "tab/compressed_model.hpp"

#include <algorithm>

#include "common/cost.hpp"
#include "common/timer.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"

namespace dp::tab {

using core::EnvMat;
using core::ModelConfig;

CompressedDP::CompressedDP(const TabulatedDP& tabulated, core::EnvMatKernel env_kernel)
    : tab_(tabulated), env_kernel_(env_kernel) {
  core::require_descriptor(tabulated.model().config(), core::DescriptorKind::SeA,
                           "CompressedDP");
}

void CompressedDP::prepare(std::size_t n) {
  const ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  const std::size_t nt = static_cast<std::size_t>(cfg.ntypes);
  atom_energy_.resize(n);
  resize_discard(g_rmat_, env_.stored_slots() * 4);
  g_by_type_.resize(nt);
  dg_by_type_.resize(nt);
  row_off_.resize(nt * (n + 1));
  int max_sel = 0;
  for (std::size_t t = 0; t < nt; ++t) {
    std::size_t run = 0;
    for (std::size_t i = 0; i < n; ++i) {
      row_off_[t * (n + 1) + i] = run;
      run += static_cast<std::size_t>(rows_of(i, static_cast<int>(t)));
    }
    row_off_[t * (n + 1) + n] = run;
    g_by_type_[t].resize(run, m);
    dg_by_type_[t].resize(run, m);
    max_sel = std::max(max_sel, cfg.sel[t]);
  }
  fit_.prepare(cfg);
  g_g_.resize(static_cast<std::size_t>(max_sel) * m);
}

md::ForceResult CompressedDP::compute(const md::Box& box, md::Atoms& atoms,
                                      const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("compressed.compute", "kernel");
  const core::DPModel& model = tab_.model();
  const ModelConfig& cfg = model.config();
  {
    ScopedTimer t("compressed.env_mat", "kernel");
    build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, env_kernel_, periodic);
  }
  const std::size_t n = env_.n_atoms;
  const std::size_t m = cfg.m();
  const int nm = cfg.nm();
  const double scale = 1.0 / static_cast<double>(nm);
  prepare(n);

  // ---- Tabulated embedding: G and dG/ds materialized over every stored
  // slot (the dense layout keeps its padded rows — redundancy removal is a
  // later optimization step; the compact layout has none to keep) ----------
  embedding_bytes_ = 0;
  std::size_t rows_tabulated = 0;
  {
    ScopedTimer t("compressed.tabulation", "kernel");
    for (int ty = 0; ty < cfg.ntypes; ++ty) {
      const TabulatedEmbedding& table = tab_.table(ty);
      const std::size_t rows = row_of(ty, n);
      nn::Matrix& g = g_by_type_[static_cast<std::size_t>(ty)];
      nn::Matrix& dg = dg_by_type_[static_cast<std::size_t>(ty)];
      // The G/dG matrices for one type are written front to back across the
      // whole frame before anything reads them; once that run is bigger
      // than any cache the vector kernels should stream past it with
      // non-temporal stores instead of paying read-for-ownership per line.
      const bool streaming = 2 * rows * m * sizeof(double) > std::size_t{8} << 20;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t base = env_.block_begin(i, ty);
        const std::size_t r0 = row_of(ty, i);
        const int cnt = rows_of(i, ty);
        if (cnt <= 0) continue;
        // Batched walk over the atom's whole slot run: s values stride 4
        // through the env-matrix rows, output rows stride M through the
        // G / dG matrices — one SIMD dispatch per (atom, type) block.
        table.eval_with_deriv_batch(env_.rmat_at(base), 4, static_cast<std::size_t>(cnt),
                                    g.row(r0), dg.row(r0), m, streaming);
      }
      rows_tabulated += rows;
      embedding_bytes_ += (g.size() + dg.size()) * sizeof(double);
      CostRegistry::instance().add(
          "compressed.tabulation",
          {static_cast<double>(rows) * 14.0 * static_cast<double>(m),
           static_cast<double>(rows) * 6.0 * static_cast<double>(m) * sizeof(double),
           2.0 * static_cast<double>(rows) * static_cast<double>(m) * sizeof(double)});
    }
  }
  {
    static obs::Counter& rows_metric =
        obs::MetricsRegistry::instance().counter("compressed.rows_tabulated");
    rows_metric.inc(rows_tabulated);
  }

  // ---- Per atom: A contraction (pass 1); one batched descriptor + fit +
  // backward per block of same-type atoms; dE/dG and dE/dR~ (pass 2) — the
  // baseline's dataflow ----------------------------------------------------
  md::ForceResult out;
  {
    ScopedTimer t("compressed.descriptor_fit", "kernel");
    const auto pass2 = [&](std::size_t i, const double* g_a) {
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const std::size_t krows = static_cast<std::size_t>(rows_of(i, ty));
        if (krows == 0) continue;
        const std::size_t base = env_.block_begin(i, ty);
        const std::size_t r0 = row_of(ty, i);
        // g_rmat_block (rows x 4) = G_block * g_a^T
        nn::gemm_nt(g_by_type_[static_cast<std::size_t>(ty)].row(r0), g_a,
                    g_rmat_.data() + base * 4, krows, m, 4);
        // dE/dG_block = R~_block * g_a, then dE/ds = <dE/dG, dG/ds> per row.
        nn::gemm(env_.rmat_at(base), g_a, g_g_.data(), krows, 4, m);
        for (std::size_t k = 0; k < krows; ++k) {
          const double* gg = g_g_.data() + k * m;
          const double* dg = dg_by_type_[static_cast<std::size_t>(ty)].row(r0 + k);
          double acc = 0.0;
#pragma omp simd reduction(+ : acc)
          for (std::size_t b = 0; b < m; ++b) acc += gg[b] * dg[b];
          g_rmat_[(base + k) * 4] += acc;
        }
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      const int ct = atoms.type[i];
      double* a_mat = fit_.push(ct, i);
      for (int ty = 0; ty < cfg.ntypes; ++ty) {
        const std::size_t krows = static_cast<std::size_t>(rows_of(i, ty));
        if (krows == 0) continue;
        nn::gemm_tn_acc(env_.rmat_at(env_.block_begin(i, ty)),
                        g_by_type_[static_cast<std::size_t>(ty)].row(row_of(ty, i)), a_mat,
                        4, krows, m);
      }
      for (std::size_t k = 0; k < 4 * m; ++k) a_mat[k] *= scale;
      if (fit_.full(ct)) fit_.flush(ct, model.fitting(ct), atom_energy_.data(), pass2);
    }
    for (int t = 0; t < cfg.ntypes; ++t)
      fit_.flush(t, model.fitting(t), atom_energy_.data(), pass2);
    for (std::size_t i = 0; i < n; ++i) out.energy += atom_energy_[i];
  }
  core::record_fit_block_cost(model.fitting(0), n, fit_.blocks());

  {
    ScopedTimer t("compressed.prod_force", "kernel");
    atoms.zero_forces();
    prod_force_virial(env_, g_rmat_.data(), box, atoms, periodic, atoms.force, out.virial,
                      prod_ws_);
  }
  return out;
}

}  // namespace dp::tab
