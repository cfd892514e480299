#include "fused/mixed_model.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/simd.hpp"
#include "common/team.hpp"
#include "common/timer.hpp"
#include "dp/descriptor.hpp"
#include "dp/prod_force.hpp"

namespace dp::fused {

using core::ModelConfig;

namespace {

// ---------------------------------------------------------------------------
// Per-level float kernels for the mixed path's two hot loops — the float
// twins of the fused_model.cpp kernels, at twice the lane width (8 floats
// AVX2 / 16 AVX-512). Level::Scalar keeps the exact seed loops (pragma
// included) so DP_SIMD=scalar reproduces the pre-SIMD mixed forces bit for
// bit; the vector dot reductions reassociate (vector partials + std::fma
// tail), covered by the reduction clause of the numerical contract.
// ---------------------------------------------------------------------------

/// Pass-1 rank-1 update in float: A_c += r[c] * row.
void rank1_update_sp_scalar(const float* r, const float* row, std::size_t m, float* a_sp) {
  for (int c = 0; c < 4; ++c) {
    const float rv = r[c];
    float* arow = a_sp + static_cast<std::size_t>(c) * m;
#pragma omp simd
    for (std::size_t b = 0; b < m; ++b) arow[b] += rv * row[b];
  }
}

// Pass-2 per-slot contraction at Level::Scalar stays INLINE in the compute()
// lambda (pick_slot_gradient_sp returns nullptr, same fallback shape as
// prod_force.cpp): unlike the double path — whose seed already carried a
// noinline slot_gradient_scalar — the mixed seed compiled this reduction
// inside the lambda, and extracting it re-rolls the autovectorizer's partial-
// sum lanes, breaking DP_SIMD=scalar bit identity in the last float bit.

#if DP_SIMD_X86

DP_TARGET_AVX2 void rank1_update_sp_avx2(const float* r, const float* row, std::size_t m,
                                         float* a_sp) {
  using namespace simd;
  for (int c = 0; c < 4; ++c) {
    const float rv = r[c];
    const v8f vrv = f8_set1(rv);
    float* arow = a_sp + static_cast<std::size_t>(c) * m;
    std::size_t b = 0;
    for (; b + 8 <= m; b += 8)
      f8_storeu(arow + b, f8_fmadd(vrv, f8_loadu(row + b), f8_loadu(arow + b)));
    for (; b < m; ++b) arow[b] = std::fma(rv, row[b], arow[b]);
  }
}

DP_TARGET_AVX512 void rank1_update_sp_avx512(const float* r, const float* row, std::size_t m,
                                             float* a_sp) {
  using namespace simd;
  for (int c = 0; c < 4; ++c) {
    const float rv = r[c];
    const v16f vrv = f16_set1(rv);
    float* arow = a_sp + static_cast<std::size_t>(c) * m;
    std::size_t b = 0;
    for (; b + 16 <= m; b += 16)
      f16_storeu(arow + b, f16_fmadd(vrv, f16_loadu(row + b), f16_loadu(arow + b)));
    for (; b < m; ++b) arow[b] = std::fma(rv, row[b], arow[b]);
  }
}

DP_TARGET_AVX2 void slot_gradient_sp_avx2(const float* r, const float* row,
                                          const float* drow, const float* ga_sp,
                                          std::size_t m, double* grow) {
  using namespace simd;
  const float r0 = r[0], r1 = r[1], r2 = r[2], r3 = r[3];
  const float* ga0 = ga_sp;
  const float* ga1 = ga_sp + m;
  const float* ga2 = ga_sp + 2 * m;
  const float* ga3 = ga_sp + 3 * m;
  const v8f vr0 = f8_set1(r0), vr1 = f8_set1(r1), vr2 = f8_set1(r2), vr3 = f8_set1(r3);
  v8f v0 = f8_zero(), v1 = f8_zero(), v2 = f8_zero(), v3 = f8_zero(), vs = f8_zero();
  std::size_t b = 0;
  for (; b + 8 <= m; b += 8) {
    const v8f a0 = f8_loadu(ga0 + b), a1 = f8_loadu(ga1 + b), a2 = f8_loadu(ga2 + b),
              a3 = f8_loadu(ga3 + b);
    const v8f gb = f8_loadu(row + b);
    v0 = f8_fmadd(a0, gb, v0);
    v1 = f8_fmadd(a1, gb, v1);
    v2 = f8_fmadd(a2, gb, v2);
    v3 = f8_fmadd(a3, gb, v3);
    v8f w = f8_mul(vr0, a0);
    w = f8_fmadd(vr1, a1, w);
    w = f8_fmadd(vr2, a2, w);
    w = f8_fmadd(vr3, a3, w);
    vs = f8_fmadd(w, f8_loadu(drow + b), vs);
  }
  float acc0 = f8_reduce_add(v0), acc1 = f8_reduce_add(v1), acc2 = f8_reduce_add(v2),
        acc3 = f8_reduce_add(v3), acc_s = f8_reduce_add(vs);
  for (; b < m; ++b) {
    const float gb = row[b];
    acc0 = std::fma(ga0[b], gb, acc0);
    acc1 = std::fma(ga1[b], gb, acc1);
    acc2 = std::fma(ga2[b], gb, acc2);
    acc3 = std::fma(ga3[b], gb, acc3);
    float w = r0 * ga0[b];
    w = std::fma(r1, ga1[b], w);
    w = std::fma(r2, ga2[b], w);
    w = std::fma(r3, ga3[b], w);
    acc_s = std::fma(w, drow[b], acc_s);
  }
  grow[0] = static_cast<double>(acc0) + static_cast<double>(acc_s);
  grow[1] = acc1;
  grow[2] = acc2;
  grow[3] = acc3;
}

DP_TARGET_AVX512 void slot_gradient_sp_avx512(const float* r, const float* row,
                                              const float* drow, const float* ga_sp,
                                              std::size_t m, double* grow) {
  using namespace simd;
  const float r0 = r[0], r1 = r[1], r2 = r[2], r3 = r[3];
  const float* ga0 = ga_sp;
  const float* ga1 = ga_sp + m;
  const float* ga2 = ga_sp + 2 * m;
  const float* ga3 = ga_sp + 3 * m;
  const v16f vr0 = f16_set1(r0), vr1 = f16_set1(r1), vr2 = f16_set1(r2), vr3 = f16_set1(r3);
  v16f v0 = f16_zero(), v1 = f16_zero(), v2 = f16_zero(), v3 = f16_zero(), vs = f16_zero();
  std::size_t b = 0;
  for (; b + 16 <= m; b += 16) {
    const v16f a0 = f16_loadu(ga0 + b), a1 = f16_loadu(ga1 + b), a2 = f16_loadu(ga2 + b),
               a3 = f16_loadu(ga3 + b);
    const v16f gb = f16_loadu(row + b);
    v0 = f16_fmadd(a0, gb, v0);
    v1 = f16_fmadd(a1, gb, v1);
    v2 = f16_fmadd(a2, gb, v2);
    v3 = f16_fmadd(a3, gb, v3);
    v16f w = f16_mul(vr0, a0);
    w = f16_fmadd(vr1, a1, w);
    w = f16_fmadd(vr2, a2, w);
    w = f16_fmadd(vr3, a3, w);
    vs = f16_fmadd(w, f16_loadu(drow + b), vs);
  }
  float acc0 = f16_reduce_add(v0), acc1 = f16_reduce_add(v1), acc2 = f16_reduce_add(v2),
        acc3 = f16_reduce_add(v3), acc_s = f16_reduce_add(vs);
  for (; b < m; ++b) {
    const float gb = row[b];
    acc0 = std::fma(ga0[b], gb, acc0);
    acc1 = std::fma(ga1[b], gb, acc1);
    acc2 = std::fma(ga2[b], gb, acc2);
    acc3 = std::fma(ga3[b], gb, acc3);
    float w = r0 * ga0[b];
    w = std::fma(r1, ga1[b], w);
    w = std::fma(r2, ga2[b], w);
    w = std::fma(r3, ga3[b], w);
    acc_s = std::fma(w, drow[b], acc_s);
  }
  grow[0] = static_cast<double>(acc0) + static_cast<double>(acc_s);
  grow[1] = acc1;
  grow[2] = acc2;
  grow[3] = acc3;
}

#endif  // DP_SIMD_X86

using Rank1SPFn = void (*)(const float*, const float*, std::size_t, float*);
using SlotGradientSPFn = void (*)(const float*, const float*, const float*, const float*,
                                  std::size_t, double*);

Rank1SPFn pick_rank1_sp(simd::Level lvl) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512) return rank1_update_sp_avx512;
  if (lvl == simd::Level::AVX2) return rank1_update_sp_avx2;
#else
  (void)lvl;
#endif
  return rank1_update_sp_scalar;
}

/// nullptr at Level::Scalar — the caller's inline seed loop is the fallback.
SlotGradientSPFn pick_slot_gradient_sp(simd::Level lvl) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512) return slot_gradient_sp_avx512;
  if (lvl == simd::Level::AVX2) return slot_gradient_sp_avx2;
#else
  (void)lvl;
#endif
  return nullptr;
}

}  // namespace

MixedFusedDP::MixedFusedDP(const tab::TabulatedDP& tabulated, MixedPrecision precision)
    : tab_(tabulated), precision_(precision) {
  const auto& model = tabulated.model();
  const int nt = model.config().ntypes;
  auto each_table = [&](auto&& fn) {
    if (model.config().type_one_side) {
      for (int t = 0; t < nt; ++t) fn(tabulated.table(t));
    } else {
      for (int c = 0; c < nt; ++c)
        for (int t = 0; t < nt; ++t) fn(tabulated.table_pair(c, t));
    }
  };
  if (precision_ == MixedPrecision::Single)
    each_table([&](const tab::TabulatedEmbedding& t) { tables_sp_.emplace_back(t); });
  else
    each_table([&](const tab::TabulatedEmbedding& t) { tables_hp_.emplace_back(t); });
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
    tables_sp_[idx].eval_with_deriv_blocked_batch(s, 1, count, g, dg, out_stride);
  else
    tables_hp_[idx].eval_with_deriv_blocked_batch(s, 1, count, g, dg, out_stride);
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
  const Rank1SPFn rank1_update = pick_rank1_sp(simd::active());
  const SlotGradientSPFn slot_gradient = pick_slot_gradient_sp(simd::active());
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
          if (slot_gradient != nullptr) {
            slot_gradient(r, row, row + m, sc.ga_sp.data(), m, g_rmat_.data() + s * 4);
          } else {
            // Seed arithmetic, written as the explicit serial fma chain the
            // seed's `omp simd reduction` loop actually compiled to under
            // -march=native -ffp-contract (the vectorizer declined it; only
            // the contraction fired). Spelling the fmas out pins that bit
            // pattern at the source level — a float reduction with explicit
            // std::fma cannot be re-vectorized without reassociation, which
            // -O2 strict FP forbids — so DP_SIMD=scalar stays byte-identical
            // however the surrounding lambda evolves.
            const float* drow = row + m;
            double* grow = g_rmat_.data() + s * 4;
            float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0, acc_s = 0;
            const float r0 = r[0], r1 = r[1], r2 = r[2], r3 = r[3];
            const float* ga0 = sc.ga_sp.data();
            const float* ga1 = sc.ga_sp.data() + m;
            const float* ga2 = sc.ga_sp.data() + 2 * m;
            const float* ga3 = sc.ga_sp.data() + 3 * m;
            for (std::size_t b = 0; b < m; ++b) {
              const float gb = row[b];
              acc0 = std::fma(ga0[b], gb, acc0);
              acc1 = std::fma(ga1[b], gb, acc1);
              acc2 = std::fma(ga2[b], gb, acc2);
              acc3 = std::fma(ga3[b], gb, acc3);
              // fma(r0,ga0, r1*ga1): the seed contraction pre-rounds the
              // r1*ga1 product, not r0*ga0 — the asymmetry matters bitwise.
              float w = std::fma(r0, ga0[b], r1 * ga1[b]);
              w = std::fma(r2, ga2[b], w);
              w = std::fma(r3, ga3[b], w);
              acc_s = std::fma(w, drow[b], acc_s);
            }
            grow[0] = static_cast<double>(acc0) + static_cast<double>(acc_s);
            grow[1] = acc1;
            grow[2] = acc2;
            grow[3] = acc3;
          }
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
