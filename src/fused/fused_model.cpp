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

namespace {

// ---------------------------------------------------------------------------
// Per-level kernels for the two fused hot loops (ROADMAP item 1 remainder):
// the pass-1 rank-1 outer product A_c += rrow[c] * row (Fig 4 (c)) and the
// pass-2 per-slot gradient contraction. Level::Scalar keeps the exact
// pre-SIMD expressions (the `_scalar` kernels below are the seed bodies,
// pragma included — removing the pragma could change the autovectorized
// reduction bits under the generic build). The vector kernels use wrapper
// FMAs with std::fma tails; dot-product reductions reassociate (vector
// partials folded by v*_reduce_add, then the tail), which is covered by the
// reduction clause of the numerical contract — relative bounds, not ulps.
// Dispatch is hoisted out of the slot loop: compute() resolves the function
// pointers once per call.
// ---------------------------------------------------------------------------

/// Pass-2 per-slot contraction: g_rmat[c] = <g_a[c], row>, plus the dE/ds
/// table term <R~ g_a, drow> folded into column 0. Kept noinline so exactly
/// ONE compiled instance serves both the cached and the re-evaluated path —
/// if the compiler clones the reduction per branch (different pointer
/// provenance), the clones may contract/unroll differently and the
/// "staging is an exact rewrite" invariant breaks in the last bit.
__attribute__((noinline)) void slot_gradient_scalar(const double* rrow, const double* row,
                                                    const double* drow, const double* g_a,
                                                    std::size_t m, double* grow) {
  double acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0, acc_s = 0;
  const double r0 = rrow[0], r1 = rrow[1], r2 = rrow[2], r3 = rrow[3];
  const double* ga0 = g_a;
  const double* ga1 = g_a + m;
  const double* ga2 = g_a + 2 * m;
  const double* ga3 = g_a + 3 * m;
#pragma omp simd reduction(+ : acc0, acc1, acc2, acc3, acc_s)
  for (std::size_t b = 0; b < m; ++b) {
    const double gb = row[b];
    acc0 += ga0[b] * gb;
    acc1 += ga1[b] * gb;
    acc2 += ga2[b] * gb;
    acc3 += ga3[b] * gb;
    acc_s += (r0 * ga0[b] + r1 * ga1[b] + r2 * ga2[b] + r3 * ga3[b]) * drow[b];
  }
  grow[0] = acc0 + acc_s;
  grow[1] = acc1;
  grow[2] = acc2;
  grow[3] = acc3;
}

/// Pass-1 rank-1 update: A_c += rrow[c] * row for the four env columns.
void rank1_update_scalar(const double* rrow, const double* row, std::size_t m,
                         double* a_mat) {
  for (int c = 0; c < 4; ++c) {
    const double rv = rrow[c];
    double* arow = a_mat + static_cast<std::size_t>(c) * m;
#pragma omp simd
    for (std::size_t b = 0; b < m; ++b) arow[b] += rv * row[b];
  }
}

#if DP_SIMD_X86

DP_TARGET_AVX2 void slot_gradient_avx2(const double* rrow, const double* row,
                                       const double* drow, const double* g_a, std::size_t m,
                                       double* grow) {
  using namespace simd;
  const double r0 = rrow[0], r1 = rrow[1], r2 = rrow[2], r3 = rrow[3];
  const double* ga0 = g_a;
  const double* ga1 = g_a + m;
  const double* ga2 = g_a + 2 * m;
  const double* ga3 = g_a + 3 * m;
  const v4d vr0 = v4_set1(r0), vr1 = v4_set1(r1), vr2 = v4_set1(r2), vr3 = v4_set1(r3);
  v4d v0 = v4_zero(), v1 = v4_zero(), v2 = v4_zero(), v3 = v4_zero(), vs = v4_zero();
  std::size_t b = 0;
  for (; b + 4 <= m; b += 4) {
    const v4d a0 = v4_loadu(ga0 + b), a1 = v4_loadu(ga1 + b), a2 = v4_loadu(ga2 + b),
              a3 = v4_loadu(ga3 + b);
    const v4d gb = v4_loadu(row + b);
    v0 = v4_fmadd(a0, gb, v0);
    v1 = v4_fmadd(a1, gb, v1);
    v2 = v4_fmadd(a2, gb, v2);
    v3 = v4_fmadd(a3, gb, v3);
    v4d w = v4_mul(vr0, a0);
    w = v4_fmadd(vr1, a1, w);
    w = v4_fmadd(vr2, a2, w);
    w = v4_fmadd(vr3, a3, w);
    vs = v4_fmadd(w, v4_loadu(drow + b), vs);
  }
  double acc0 = v4_reduce_add(v0), acc1 = v4_reduce_add(v1), acc2 = v4_reduce_add(v2),
         acc3 = v4_reduce_add(v3), acc_s = v4_reduce_add(vs);
  for (; b < m; ++b) {
    const double gb = row[b];
    acc0 = std::fma(ga0[b], gb, acc0);
    acc1 = std::fma(ga1[b], gb, acc1);
    acc2 = std::fma(ga2[b], gb, acc2);
    acc3 = std::fma(ga3[b], gb, acc3);
    double w = r0 * ga0[b];
    w = std::fma(r1, ga1[b], w);
    w = std::fma(r2, ga2[b], w);
    w = std::fma(r3, ga3[b], w);
    acc_s = std::fma(w, drow[b], acc_s);
  }
  grow[0] = acc0 + acc_s;
  grow[1] = acc1;
  grow[2] = acc2;
  grow[3] = acc3;
}

DP_TARGET_AVX512 void slot_gradient_avx512(const double* rrow, const double* row,
                                           const double* drow, const double* g_a,
                                           std::size_t m, double* grow) {
  using namespace simd;
  const double r0 = rrow[0], r1 = rrow[1], r2 = rrow[2], r3 = rrow[3];
  const double* ga0 = g_a;
  const double* ga1 = g_a + m;
  const double* ga2 = g_a + 2 * m;
  const double* ga3 = g_a + 3 * m;
  const v8d vr0 = v8_set1(r0), vr1 = v8_set1(r1), vr2 = v8_set1(r2), vr3 = v8_set1(r3);
  v8d v0 = v8_zero(), v1 = v8_zero(), v2 = v8_zero(), v3 = v8_zero(), vs = v8_zero();
  std::size_t b = 0;
  for (; b + 8 <= m; b += 8) {
    const v8d a0 = v8_loadu(ga0 + b), a1 = v8_loadu(ga1 + b), a2 = v8_loadu(ga2 + b),
              a3 = v8_loadu(ga3 + b);
    const v8d gb = v8_loadu(row + b);
    v0 = v8_fmadd(a0, gb, v0);
    v1 = v8_fmadd(a1, gb, v1);
    v2 = v8_fmadd(a2, gb, v2);
    v3 = v8_fmadd(a3, gb, v3);
    v8d w = v8_mul(vr0, a0);
    w = v8_fmadd(vr1, a1, w);
    w = v8_fmadd(vr2, a2, w);
    w = v8_fmadd(vr3, a3, w);
    vs = v8_fmadd(w, v8_loadu(drow + b), vs);
  }
  double acc0 = v8_reduce_add(v0), acc1 = v8_reduce_add(v1), acc2 = v8_reduce_add(v2),
         acc3 = v8_reduce_add(v3), acc_s = v8_reduce_add(vs);
  for (; b < m; ++b) {
    const double gb = row[b];
    acc0 = std::fma(ga0[b], gb, acc0);
    acc1 = std::fma(ga1[b], gb, acc1);
    acc2 = std::fma(ga2[b], gb, acc2);
    acc3 = std::fma(ga3[b], gb, acc3);
    double w = r0 * ga0[b];
    w = std::fma(r1, ga1[b], w);
    w = std::fma(r2, ga2[b], w);
    w = std::fma(r3, ga3[b], w);
    acc_s = std::fma(w, drow[b], acc_s);
  }
  grow[0] = acc0 + acc_s;
  grow[1] = acc1;
  grow[2] = acc2;
  grow[3] = acc3;
}

DP_TARGET_AVX2 void rank1_update_avx2(const double* rrow, const double* row, std::size_t m,
                                      double* a_mat) {
  using namespace simd;
  for (int c = 0; c < 4; ++c) {
    const double rv = rrow[c];
    const v4d vrv = v4_set1(rv);
    double* arow = a_mat + static_cast<std::size_t>(c) * m;
    std::size_t b = 0;
    for (; b + 4 <= m; b += 4)
      v4_storeu(arow + b, v4_fmadd(vrv, v4_loadu(row + b), v4_loadu(arow + b)));
    for (; b < m; ++b) arow[b] = std::fma(rv, row[b], arow[b]);
  }
}

DP_TARGET_AVX512 void rank1_update_avx512(const double* rrow, const double* row,
                                          std::size_t m, double* a_mat) {
  using namespace simd;
  for (int c = 0; c < 4; ++c) {
    const double rv = rrow[c];
    const v8d vrv = v8_set1(rv);
    double* arow = a_mat + static_cast<std::size_t>(c) * m;
    std::size_t b = 0;
    for (; b + 8 <= m; b += 8)
      v8_storeu(arow + b, v8_fmadd(vrv, v8_loadu(row + b), v8_loadu(arow + b)));
    for (; b < m; ++b) arow[b] = std::fma(rv, row[b], arow[b]);
  }
}

#endif  // DP_SIMD_X86

using SlotGradientFn = void (*)(const double*, const double*, const double*, const double*,
                                std::size_t, double*);
using Rank1Fn = void (*)(const double*, const double*, std::size_t, double*);

SlotGradientFn pick_slot_gradient(simd::Level lvl) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512) return slot_gradient_avx512;
  if (lvl == simd::Level::AVX2) return slot_gradient_avx2;
#else
  (void)lvl;
#endif
  return slot_gradient_scalar;
}

Rank1Fn pick_rank1(simd::Level lvl) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512) return rank1_update_avx512;
  if (lvl == simd::Level::AVX2) return rank1_update_avx2;
#else
  (void)lvl;
#endif
  return rank1_update_scalar;
}

}  // namespace

FusedDP::FusedDP(const tab::TabulatedDP& tabulated, FusedOptions opts)
    : tab_(tabulated), opts_(opts) {}

void FusedDP::prepare(std::size_t n) {
  const ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  atom_energy_.resize(n);
  g_rmat_.resize(env_.stored_slots() * 4);
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
    const SlotGradientFn slot_gradient = pick_slot_gradient(simd::active());
    const Rank1Fn rank1_update = pick_rank1(simd::active());
    const std::size_t cache_per_atom = static_cast<std::size_t>(nm) * 2 * m;
    BuildTeam& team = BuildTeam::team();
    auto body = [&](int tid, int T) {
      // Per-thread scratch: one embedding row + its derivative (the
      // "registers" of the CUDA kernel) and the pending fitting blocks —
      // persistent members, nothing allocated per call.
      ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
      sc.slots_partial = 0;
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
              const double* cache =
                  atom_cache(atoms.type[i], slot) + static_cast<std::size_t>(off + k) * 2 * m;
              row = cache;
              drow = cache + m;
            } else if (opts_.blocked_table) {
              table.eval_with_deriv_blocked(rrow[0], sc.g_row.data(), sc.dg_row.data());
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
          if (opts_.cache_rows && opts_.blocked_table && limit > 0) {
            // Batched staging: the s values sit in the first column of the
            // contiguous env-matrix rows (stride 4), the cache rows are
            // value/derivative pairs (stride 2M) — one SIMD dispatch for
            // the whole slot run instead of one per slot.
            double* cache0 = atom_cache(ct, slot) + static_cast<std::size_t>(off) * 2 * m;
            table.eval_with_deriv_blocked_batch(env_.rmat_at(base), 4,
                                                static_cast<std::size_t>(limit), cache0,
                                                cache0 + m, 2 * m);
          }
          for (int k = 0; k < limit; ++k) {
            const double* rrow = env_.rmat_at(base + static_cast<std::size_t>(k));
            const double* row = sc.g_row.data();
            if (opts_.cache_rows) {
              // Single table walk: value + derivative staged for pass 2.
              // (Cache indexed by the dense in-atom offset in both layouts.)
              double* cache = atom_cache(ct, slot) + static_cast<std::size_t>(off + k) * 2 * m;
              if (!opts_.blocked_table)  // blocked rows staged by the batch above
                table.eval_with_deriv(rrow[0], cache, cache + m);
              row = cache;
            } else if (opts_.blocked_table) {
              table.eval_blocked(rrow[0], sc.g_row.data());
            } else {
              table.eval(rrow[0], sc.g_row.data());
            }
            // outer-product update: A_c += rrow[c] * row (Fig 4 (c))
            rank1_update(rrow, row, m, a_mat);
            ++sc.slots_partial;
          }
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
