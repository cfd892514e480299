#include "dp/baseline_model.hpp"

#include <algorithm>

#include "common/cost.hpp"
#include "common/timer.hpp"
#include "nn/gemm.hpp"

namespace dp::core {

BaselineDP::BaselineDP(const DPModel& model, EnvMatKernel env_kernel)
    : model_(model), env_kernel_(env_kernel) {}

void BaselineDP::prepare(std::size_t n) {
  const ModelConfig& cfg = model_.config();
  const std::size_t m = cfg.m();
  const std::size_t nt = static_cast<std::size_t>(cfg.ntypes);
  atom_energy_.resize(n);
  resize_discard(g_rmat_, env_.stored_slots() * 4);
  g_by_type_.resize(nt);
  ws_by_type_.resize(nt);
  g_g_by_type_.resize(nt);
  row_off_.resize(nt * (n + 1));
  std::size_t max_rows = 0;
  for (std::size_t t = 0; t < nt; ++t) {
    std::size_t run = 0;
    for (std::size_t i = 0; i < n; ++i) {
      row_off_[t * (n + 1) + i] = run;
      run += static_cast<std::size_t>(rows_of(i, static_cast<int>(t)));
    }
    row_off_[t * (n + 1) + n] = run;
    g_g_by_type_[t].resize(run, m);
    max_rows = std::max(max_rows, run);
  }
  s_buf_.resize(max_rows);
  g_s_.resize(max_rows);
  fit_.prepare(cfg.ntypes, m);
}

std::size_t BaselineDP::workspace_bytes() const {
  std::size_t b = env_.storage_bytes() + env_ws_.bytes() + prod_ws_.bytes() +
                  g_rmat_.capacity() * sizeof(double) + s_buf_.capacity() * sizeof(double) +
                  g_s_.capacity() * sizeof(double) + fit_.bytes() + bwd_scratch_.bytes() +
                  row_off_.capacity() * sizeof(std::size_t) +
                  atom_energy_.capacity() * sizeof(double);
  for (const auto& g : g_by_type_) b += g.size() * sizeof(double);
  for (const auto& g : g_g_by_type_) b += g.size() * sizeof(double);
  return b;
}

md::ForceResult BaselineDP::compute(const md::Box& box, md::Atoms& atoms,
                                    const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("baseline.compute", "kernel");
  const ModelConfig& cfg = model_.config();
  {
    ScopedTimer t("baseline.env_mat", "kernel");
    build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, env_kernel_, periodic);
  }
  const std::size_t n = env_.n_atoms;
  const std::size_t m = cfg.m();
  const std::size_t m_sub = cfg.axis_neuron;
  const int nm = cfg.nm();
  const double scale = 1.0 / static_cast<double>(nm);
  prepare(n);

  // ---- Embedding forward: one batched pipeline per neighbor type over the
  // stored slots (the dense layout keeps its padded rows: the fixed GEMM
  // shape IS the baseline being measured) --------------------------------
  embedding_bytes_ = 0;
  {
    ScopedTimer t("baseline.embedding_fwd", "kernel");
    for (int t = 0; t < cfg.ntypes; ++t) {
      const std::size_t rows = row_of(t, n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t base = env_.block_begin(i, t);
        const std::size_t r0 = row_of(t, i);
        const int cnt = rows_of(i, t);
        for (int k = 0; k < cnt; ++k)
          s_buf_[r0 + static_cast<std::size_t>(k)] =
              env_.rmat_at(base + static_cast<std::size_t>(k))[0];
      }
      model_.embedding(t).forward_batch_ws(s_buf_.data(), rows, g_by_type_[t], ws_by_type_[t]);
      embedding_bytes_ += g_by_type_[t].size() * sizeof(double);
      for (const auto& mtx : ws_by_type_[t].inputs) embedding_bytes_ += mtx.size() * sizeof(double);
      for (const auto& mtx : ws_by_type_[t].acts) embedding_bytes_ += mtx.size() * sizeof(double);
      CostRegistry::instance().add(
          "baseline.embedding_fwd",
          {static_cast<double>(rows) * model_.embedding(t).flops_per_scalar(),
           static_cast<double>(rows) * sizeof(double),
           static_cast<double>(rows) * static_cast<double>(m) * sizeof(double)});
    }
  }

  // ---- Descriptor + fitting net, forward and backward: A per atom, one
  // batched evaluation per block of same-type atoms, dE/dG and dE/dR~ per
  // atom ------------------------------------------------------------------
  md::ForceResult out;
  {
    ScopedTimer t("baseline.descriptor_fit", "kernel");
    // dE/dG rows and dE/dR~ rows for every stored slot of atom i.
    const auto pass2 = [&](std::size_t i, std::size_t, const double* g_a) {
      for (int t = 0; t < cfg.ntypes; ++t) {
        const std::size_t krows = static_cast<std::size_t>(rows_of(i, t));
        if (krows == 0) continue;
        const std::size_t base = env_.block_begin(i, t);
        // dG_block (rows x M) = R~_block (rows x 4) * g_a (4 x M)
        nn::gemm(env_.rmat_at(base), g_a, g_g_by_type_[t].row(row_of(t, i)), krows, 4, m);
        // g_rmat_block (rows x 4) = G_block (rows x M) * g_a^T (M x 4)
        nn::gemm_nt(g_by_type_[t].row(row_of(t, i)), g_a, g_rmat_.data() + base * 4, krows, m,
                    4);
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      // A = (1/N_m) R~^T G, accumulated over the per-type slot blocks.
      const int ct = atoms.type[i];
      double* a_mat = fit_.a_mat(ct, fit_.push(ct, i));
      for (int t = 0; t < cfg.ntypes; ++t) {
        const std::size_t krows = static_cast<std::size_t>(rows_of(i, t));
        if (krows == 0) continue;
        nn::gemm_tn_acc(env_.rmat_at(env_.block_begin(i, t)), g_by_type_[t].row(row_of(t, i)),
                        a_mat, 4, krows, m);
      }
      for (std::size_t k = 0; k < 4 * m; ++k) a_mat[k] *= scale;
      if (fit_.full(ct))
        fit_.flush(ct, model_.fitting(ct), m_sub, scale, atom_energy_.data(), pass2);
    }
    for (int t = 0; t < cfg.ntypes; ++t)
      fit_.flush(t, model_.fitting(t), m_sub, scale, atom_energy_.data(), pass2);
    for (std::size_t i = 0; i < n; ++i) out.energy += atom_energy_[i];
  }
  record_fit_block_cost(model_.fitting(0), n, fit_.blocks());

  // ---- Embedding backward (GEMM-shaped, again over every stored slot) ---
  {
    ScopedTimer t("baseline.embedding_bwd", "kernel");
    for (int t = 0; t < cfg.ntypes; ++t) {
      const std::size_t rows = row_of(t, n);
      model_.embedding(t).backward_batch(ws_by_type_[t], g_g_by_type_[t], g_s_.data(), bwd_scratch_);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t base = env_.block_begin(i, t);
        const std::size_t r0 = row_of(t, i);
        const int cnt = rows_of(i, t);
        for (int k = 0; k < cnt; ++k)
          g_rmat_[(base + static_cast<std::size_t>(k)) * 4] +=
              g_s_[r0 + static_cast<std::size_t>(k)];
      }
      CostRegistry::instance().add(
          "baseline.embedding_bwd",
          {2.0 * static_cast<double>(rows) * model_.embedding(t).flops_per_scalar(),
           2.0 * static_cast<double>(rows) * static_cast<double>(m) * sizeof(double),
           static_cast<double>(rows) * sizeof(double)});
    }
  }

  // ---- Force / virial scatter -------------------------------------------
  {
    ScopedTimer t("baseline.prod_force", "kernel");
    atoms.zero_forces();
    prod_force_virial(env_, g_rmat_.data(), box, atoms, periodic, atoms.force, out.virial,
                      prod_ws_);
  }
  return out;
}

}  // namespace dp::core
