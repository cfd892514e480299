// Cross-level parity for the float-lane tabulated walks (float and
// _Float16 coefficients) and the mixed-precision fused model built on them —
// the single-precision sibling of test_simd_parity.cpp, pinning the same
// dispatch contract one element width down:
//   * at every level, the single-row and batched walks agree BITWISE with an
//     independent channel-major (AoS) float fma Horner over the rounded
//     coefficients (each lane runs the same fma sequence);
//   * forcing Level::Scalar is bit-stable no matter what level ran before;
//   * the vector levels are bitwise identical to Level::Scalar, in-domain,
//     at the interval boundaries and their nextafter neighbors, and
//     extrapolating;
//   * the streaming (non-temporal) store path and its misaligned fallback
//     change nothing but the store instruction;
//   * MixedFusedDP forces are bitwise thread-count independent at every
//     level, for Single and Half storage.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "aos_reference.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fused/mixed_model.hpp"
#include "md/lattice.hpp"
#include "tab/table.hpp"

namespace dp {
namespace {

/// Forces a SIMD level for one scope, restoring the previous level after.
class LevelGuard {
 public:
  explicit LevelGuard(simd::Level lvl) : prev_(simd::active()) { simd::force(lvl); }
  ~LevelGuard() { simd::force(prev_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level prev_;
};

class ThreadGuard {
 public:
  ThreadGuard() : saved_(omp_get_max_threads()) {}
  ~ThreadGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> v{simd::Level::Scalar};
  const int cap = static_cast<int>(simd::max_supported());
  if (cap >= static_cast<int>(simd::Level::AVX2)) v.push_back(simd::Level::AVX2);
  if (cap >= static_cast<int>(simd::Level::AVX512)) v.push_back(simd::Level::AVX512);
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

tab::TabulatedEmbedding make_ref(std::size_t m_out, std::uint64_t seed) {
  nn::EmbeddingNet net({8, 16, m_out});
  Rng rng(seed);
  net.init_random(rng);
  return tab::TabulatedEmbedding(net, {0.1, 1.9, 0.01});
}

/// Float probes spanning the table: the bounds as the SP table stores them
/// (the double bounds truncated to float), their nextafter neighbors, both
/// extrapolation sides, and a dense random fill.
std::vector<float> probe_set_f(float lo, float hi) {
  std::vector<float> s = {
      lo,
      hi,
      std::nextafterf(lo, -1e30f),
      std::nextafterf(lo, 1e30f),
      std::nextafterf(hi, -1e30f),
      std::nextafterf(hi, 1e30f),
      lo - 0.7f,  // extrapolating below
      hi + 0.7f,  // extrapolating above
      0.5f * (lo + hi),
  };
  Rng rng(19);
  for (int i = 0; i < 200; ++i)
    s.push_back(static_cast<float>(rng.uniform(lo - 0.2, hi + 0.2)));
  return s;
}

struct TableRunF {
  std::vector<float> g_row, dg_row, g_val, g_batch, dg_batch;
};

template <class Table>
TableRunF run_table_f(const Table& table, const std::vector<float>& s) {
  const std::size_t m = table.output_dim();
  const std::size_t total = s.size() * m;
  TableRunF r{std::vector<float>(total), std::vector<float>(total), std::vector<float>(total),
              std::vector<float>(total), std::vector<float>(total)};
  for (std::size_t k = 0; k < s.size(); ++k) {
    table.eval_with_deriv(s[k], r.g_row.data() + k * m, r.dg_row.data() + k * m);
    table.eval(s[k], r.g_val.data() + k * m);
  }
  table.eval_with_deriv_batch(s.data(), 1, s.size(), r.g_batch.data(), r.dg_batch.data(), m);
  return r;
}

template <class C>
void expect_layouts_agree(const tab::TabulatedEmbedding& ref, const tab::Table<C>& table,
                          const char* what) {
  const auto s = probe_set_f(static_cast<float>(ref.lo()), static_cast<float>(ref.hi()));
  const std::size_t m = table.output_dim();
  const table_ref::AosReference<C> aos(ref, table);
  std::vector<float> g_ref(s.size() * m), dg_ref(s.size() * m);
  for (std::size_t k = 0; k < s.size(); ++k)
    aos(s[k], g_ref.data() + k * m, dg_ref.data() + k * m);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    const auto r = run_table_f(table, s);
    const auto at = [&] { return std::string(what) + " m " + std::to_string(m) + " " +
                                 simd::name(lvl); };
    EXPECT_TRUE(bitwise_equal(r.g_row, g_ref)) << at();
    EXPECT_TRUE(bitwise_equal(r.dg_row, dg_ref)) << at();
    EXPECT_TRUE(bitwise_equal(r.g_val, g_ref)) << at();
    EXPECT_TRUE(bitwise_equal(r.g_batch, g_ref)) << at();
    EXPECT_TRUE(bitwise_equal(r.dg_batch, dg_ref)) << at();
  }
}

TEST(SimdParitySP, LayoutsAgreeBitwiseAtEveryLevel) {
  // 24 channels: a full 16-lane block plus a partial block, so the vector
  // body and the scalar tail are both exercised at both widths.
  for (std::size_t m_out : {std::size_t{32}, std::size_t{24}}) {
    const auto ref = make_ref(m_out, 5);
    expect_layouts_agree(ref, tab::TabulatedEmbeddingSP(ref), "sp");
    expect_layouts_agree(ref, tab::TabulatedEmbeddingHP(ref), "hp");
  }
}

TEST(SimdParitySP, ScalarFallbackIsBitStableAcrossForcedLevels) {
  const auto ref = make_ref(32, 6);
  const tab::TabulatedEmbeddingSP sp(ref);
  const tab::TabulatedEmbeddingHP hp(ref);
  const auto s = probe_set_f(static_cast<float>(ref.lo()), static_cast<float>(ref.hi()));
  std::vector<float> g0_sp, dg0_sp, g0_hp, dg0_hp;
  {
    LevelGuard guard(simd::Level::Scalar);
    const auto rs = run_table_f(sp, s);
    const auto rh = run_table_f(hp, s);
    g0_sp = rs.g_row;
    dg0_sp = rs.dg_row;
    g0_hp = rh.g_row;
    dg0_hp = rh.dg_row;
  }
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);  // run at lvl, then re-force scalar underneath
    {
      LevelGuard inner(simd::Level::Scalar);
      const auto rs = run_table_f(sp, s);
      const auto rh = run_table_f(hp, s);
      EXPECT_TRUE(bitwise_equal(rs.g_row, g0_sp)) << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(rs.dg_row, dg0_sp)) << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(rh.g_row, g0_hp)) << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(rh.dg_row, dg0_hp)) << simd::name(lvl);
    }
  }
}

TEST(SimdParitySP, VectorLevelsWithinOneUlpOfScalar) {
  // Bitwise, for float and half coefficients alike: every lane runs the fma
  // sequence Level::Scalar runs, extrapolating inputs included.
  const auto ref = make_ref(24, 7);
  const tab::TabulatedEmbeddingSP sp(ref);
  const tab::TabulatedEmbeddingHP hp(ref);
  const auto s = probe_set_f(static_cast<float>(ref.lo()), static_cast<float>(ref.hi()));
  TableRunF sp0, hp0;
  {
    LevelGuard guard(simd::Level::Scalar);
    sp0 = run_table_f(sp, s);
    hp0 = run_table_f(hp, s);
  }
  for (simd::Level lvl : available_levels()) {
    if (lvl == simd::Level::Scalar) continue;
    LevelGuard guard(lvl);
    const auto rs = run_table_f(sp, s);
    const auto rh = run_table_f(hp, s);
    EXPECT_TRUE(bitwise_equal(rs.g_row, sp0.g_row)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(rs.dg_row, sp0.dg_row)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(rs.g_batch, sp0.g_batch)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(rh.g_row, hp0.g_row)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(rh.dg_row, hp0.dg_row)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(rh.dg_batch, hp0.dg_batch)) << simd::name(lvl);
  }
}

template <class Table>
void expect_streaming_parity(const tab::TabulatedEmbedding& ref, const Table& table,
                             const char* what) {
  const auto s = probe_set_f(static_cast<float>(ref.lo()), static_cast<float>(ref.hi()));
  const std::size_t m = table.output_dim();
  AlignedVector<float> g_reg(s.size() * m), dg_reg(s.size() * m);
  AlignedVector<float> g_nt(s.size() * m), dg_nt(s.size() * m);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    table.eval_with_deriv_batch(s.data(), 1, s.size(), g_reg.data(), dg_reg.data(), m,
                                /*streaming=*/false);
    table.eval_with_deriv_batch(s.data(), 1, s.size(), g_nt.data(), dg_nt.data(), m,
                                /*streaming=*/true);
    EXPECT_EQ(0, std::memcmp(g_reg.data(), g_nt.data(), s.size() * m * sizeof(float)))
        << what << " m " << m << " " << simd::name(lvl);
    EXPECT_EQ(0, std::memcmp(dg_reg.data(), dg_nt.data(), s.size() * m * sizeof(float)))
        << what << " m " << m << " " << simd::name(lvl);
    // Misaligned rows (offset by one float) must take the fallback and
    // still produce the same bits.
    AlignedVector<float> g_off(s.size() * m + 1), dg_off(s.size() * m + 1);
    table.eval_with_deriv_batch(s.data(), 1, s.size(), g_off.data() + 1, dg_off.data() + 1, m,
                                /*streaming=*/true);
    EXPECT_EQ(0, std::memcmp(g_reg.data(), g_off.data() + 1, s.size() * m * sizeof(float)))
        << what << " m " << m << " " << simd::name(lvl);
  }
}

TEST(SimdParitySP, StreamingBatchMatchesRegularBitwise) {
  for (std::size_t m_out : {std::size_t{32}, std::size_t{24}}) {
    const auto ref = make_ref(m_out, 9);
    expect_streaming_parity(ref, tab::TabulatedEmbeddingSP(ref), "sp");
    expect_streaming_parity(ref, tab::TabulatedEmbeddingHP(ref), "hp");
  }
}

TEST(SimdParitySP, ExtrapolationTelemetryIsLevelIndependent) {
  const auto s = probe_set_f(0.1f, 1.9f);
  std::vector<std::size_t> counts_sp, counts_hp;
  for (simd::Level lvl : available_levels()) {
    const auto ref = make_ref(32, 8);  // fresh tables: counters start at 0
    const tab::TabulatedEmbeddingSP sp(ref);
    const tab::TabulatedEmbeddingHP hp(ref);
    LevelGuard guard(lvl);
    (void)run_table_f(sp, s);
    (void)run_table_f(hp, s);
    counts_sp.push_back(sp.extrapolations());
    counts_hp.push_back(hp.extrapolations());
  }
  ASSERT_FALSE(counts_sp.empty());
  EXPECT_GT(counts_sp[0], 0u);
  for (std::size_t i = 1; i < counts_sp.size(); ++i) {
    EXPECT_EQ(counts_sp[i], counts_sp[0]);
    EXPECT_EQ(counts_hp[i], counts_hp[0]);
  }
}

TEST(SimdParitySP, LanesSpMatchesLevel) {
  EXPECT_EQ(simd::lanes_sp(simd::Level::Scalar), 1u);
  EXPECT_EQ(simd::lanes_sp(simd::Level::AVX2), 8u);
  EXPECT_EQ(simd::lanes_sp(simd::Level::AVX512), 16u);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    EXPECT_EQ(simd::lanes_sp(), simd::lanes_sp(lvl));
    // Float lanes are always exactly twice the double lanes.
    EXPECT_EQ(simd::lanes_sp(), 2 * simd::lanes() - (lvl == simd::Level::Scalar ? 1 : 0));
  }
}

TEST(SimdParitySP, MixedForcesAreThreadCountInvariantAtEveryLevel) {
  // The mixed model parallelizes over atoms with per-thread scratch and a
  // deterministic master fold — forces must be bitwise identical at 1, 2
  // and 8 threads, at every dispatch level, for both storage widths.
  using fused::MixedFusedDP;
  using fused::MixedPrecision;
  const core::DPModel model(core::ModelConfig::tiny(2), 31);
  const md::Configuration sys = md::make_water(1, 1, 1, 31);
  const tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(model.config(), 0.9), 0.005};
  const tab::TabulatedDP tab(model, spec);

  ThreadGuard tg;
  for (MixedPrecision prec : {MixedPrecision::Single, MixedPrecision::Half}) {
    for (simd::Level lvl : available_levels()) {
      LevelGuard guard(lvl);
      std::vector<Vec3> f1;
      for (int threads : {1, 2, 8}) {
        omp_set_num_threads(threads);
        MixedFusedDP mixed(tab, prec);
        md::NeighborList nl(mixed.cutoff(), 1.0);
        nl.build(sys.box, sys.atoms.pos);
        md::Atoms atoms = sys.atoms;
        mixed.compute(sys.box, atoms, nl);
        if (threads == 1) {
          f1 = atoms.force;
        } else {
          ASSERT_EQ(f1.size(), atoms.force.size());
          EXPECT_EQ(0, std::memcmp(f1.data(), atoms.force.data(),
                                   f1.size() * sizeof(Vec3)))
              << simd::name(lvl) << " threads " << threads
              << (prec == MixedPrecision::Half ? " half" : " single");
        }
      }
    }
  }
}

}  // namespace
}  // namespace dp
