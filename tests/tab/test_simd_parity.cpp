// Cross-level parity for the dispatched hot loops (common/simd.hpp).
//
// Pins the numerical contract of the dispatch layer: Level::Scalar is the
// kernel body at lane width 1 with std::fma, so
//   * at every level, single-row eval / eval_with_deriv and the batched walk
//     agree BITWISE with an independent channel-major (AoS) fma Horner over
//     the save() stream — in-domain, at the boundaries and their nextafter
//     neighbors, and extrapolating;
//   * every elementwise kernel — the table walk, the fused pass-1
//     contraction (double and float tables), descriptor_forward, the env
//     rows and both prod-force pair gradients — is bitwise identical across
//     levels, and the pair gradients that rebuild the derivative rows from
//     displacements equal the ones that read the env rows' stored rows;
//   * forcing Level::Scalar is bit-stable no matter what level ran before.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "aos_reference.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/tanh_table.hpp"
#include "dp/descriptor.hpp"
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

std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> v{simd::Level::Scalar};
  const int cap = static_cast<int>(simd::max_supported());
  if (cap >= static_cast<int>(simd::Level::AVX2)) v.push_back(simd::Level::AVX2);
  if (cap >= static_cast<int>(simd::Level::AVX512)) v.push_back(simd::Level::AVX512);
  return v;
}

/// Distance in representable doubles, sign-aware (0 iff bitwise-comparable).
std::int64_t ulp_diff(double a, double b) {
  if (a == b) return 0;  // covers +0/-0
  auto key = [](double x) {
    std::int64_t i;
    std::memcpy(&i, &x, sizeof(i));
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

template <class V>
bool bitwise_equal(const V& a, const V& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

tab::TabulatedEmbedding make_table(std::size_t m_out, std::uint64_t seed) {
  nn::EmbeddingNet net({8, 16, m_out});
  Rng rng(seed);
  net.init_random(rng);
  return tab::TabulatedEmbedding(net, {0.1, 1.9, 0.01});
}

std::vector<double> probe_set(double lo, double hi) {
  std::vector<double> s = {
      lo,
      hi,
      std::nextafter(lo, -1e300),
      std::nextafter(lo, 1e300),
      std::nextafter(hi, -1e300),
      std::nextafter(hi, 1e300),
      lo - 0.7,  // extrapolating below
      hi + 0.7,  // extrapolating above
      0.5 * (lo + hi),
  };
  Rng rng(17);
  for (int i = 0; i < 200; ++i) s.push_back(rng.uniform(lo - 0.2, hi + 0.2));
  return s;
}

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

struct TableRun {
  std::vector<double> g_row, dg_row, g_val, g_batch, dg_batch;
};

TableRun run_table(const tab::TabulatedEmbedding& table, const std::vector<double>& s) {
  const std::size_t m = table.output_dim();
  const std::size_t total = s.size() * m;
  TableRun r{std::vector<double>(total), std::vector<double>(total),
             std::vector<double>(total), std::vector<double>(total),
             std::vector<double>(total)};
  for (std::size_t k = 0; k < s.size(); ++k) {
    table.eval_with_deriv(s[k], r.g_row.data() + k * m, r.dg_row.data() + k * m);
    table.eval(s[k], r.g_val.data() + k * m);
  }
  table.eval_with_deriv_batch(s.data(), 1, s.size(), r.g_batch.data(), r.dg_batch.data(), m);
  return r;
}

TEST(SimdParity, LayoutsAgreeBitwiseAtEveryLevel) {
  // 24 channels: blocks of 16 + a partial 8-lane tail block, so the vector
  // body and the width-1 tail are both exercised.
  for (std::size_t m_out : {std::size_t{32}, std::size_t{24}}) {
    const auto table = make_table(m_out, 5);
    const auto s = probe_set(table.lo(), table.hi());
    const table_ref::AosReference<double> aos(table, table);
    std::vector<double> g_ref(s.size() * m_out), dg_ref(s.size() * m_out);
    for (std::size_t k = 0; k < s.size(); ++k)
      aos(s[k], g_ref.data() + k * m_out, dg_ref.data() + k * m_out);
    for (simd::Level lvl : available_levels()) {
      LevelGuard guard(lvl);
      const TableRun r = run_table(table, s);
      EXPECT_TRUE(bitwise_equal(r.g_row, g_ref)) << "m " << m_out << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.dg_row, dg_ref)) << "m " << m_out << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.g_val, g_ref)) << "m " << m_out << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.g_batch, g_ref)) << "m " << m_out << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.dg_batch, dg_ref))
          << "m " << m_out << " " << simd::name(lvl);
    }
  }
}

TEST(SimdParity, ScalarFallbackIsBitStableAcrossForcedLevels) {
  const auto table = make_table(32, 6);
  const auto s = probe_set(table.lo(), table.hi());
  std::vector<double> g0, dg0;
  {
    LevelGuard guard(simd::Level::Scalar);
    const TableRun r = run_table(table, s);
    g0 = r.g_row;
    dg0 = r.dg_row;
  }
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);  // run at lvl, then re-force scalar underneath
    {
      LevelGuard inner(simd::Level::Scalar);
      const TableRun r = run_table(table, s);
      EXPECT_TRUE(bitwise_equal(r.g_row, g0)) << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.dg_row, dg0)) << simd::name(lvl);
    }
  }
}

TEST(SimdParity, VectorLevelsWithinOneUlpOfScalar) {
  // Every elementwise kernel runs the same fma sequence per element at every
  // lane width, so each vector level matches Level::Scalar bit for bit,
  // in-domain and extrapolating.
  const auto table = make_table(24, 7);
  const auto s = probe_set(table.lo(), table.hi());
  // Kernel inputs: odd widths (m = 37) leave a tail at every lane width.
  constexpr std::size_t m = 37, m_sub = 5, cnt = 45;
  const auto table37 = make_table(m, 70);
  const tab::TabulatedEmbeddingSP table37_f(table37);
  const auto a_mat = random_vec(4 * m, 71);
  // Env rows of a 45-slot run: s over the probe range (extrapolating
  // included), the directional columns in [-1, 1].
  auto rmat = random_vec(4 * cnt, 73);
  for (std::size_t k = 0; k < cnt; ++k) rmat[4 * k] = s[k * s.size() / cnt];
  const auto g_rows = random_vec(4 * cnt, 74), d_rows = random_vec(12 * cnt, 75);
  // Displacements of a 45-slot run across all three switch regions
  // (rcut_smth 1.5, rcut 4): lengths 0.3 .. 4.3.
  constexpr double kRs = 1.5, kRc = 4.0;
  auto diff = random_vec(3 * cnt, 76);
  for (std::size_t k = 0; k < cnt; ++k) {
    const double* v = diff.data() + 3 * k;
    const double len = std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    const double r = 0.3 + 4.0 * static_cast<double>(k) / cnt;
    for (std::size_t c = 0; c < 3; ++c) diff[3 * k + c] *= r / len;
  }
  // The same displacements as x, y and z streams, the layout prod-force
  // stages them in.
  std::vector<double> diff_streams(3 * cnt);
  for (std::size_t k = 0; k < cnt; ++k)
    for (std::size_t c = 0; c < 3; ++c) diff_streams[c * cnt + k] = diff[3 * k + c];
  std::vector<float> a_f(4 * m);
  for (std::size_t k = 0; k < 4 * m; ++k) a_f[k] = static_cast<float>(a_mat[k]);

  struct Out {
    TableRun table;
    std::vector<double> contract, desc, pair;
    std::vector<float> contract_f;
    std::vector<double> env_r, env_d, pair_diff, pair_env;
  };
  const auto run = [&](simd::Level lvl) {
    LevelGuard guard(lvl);
    Out o{run_table(table, s),
          a_mat,
          std::vector<double>(m_sub * m),
          std::vector<double>(3 * cnt),
          a_f,
          std::vector<double>(4 * cnt),
          std::vector<double>(12 * cnt),
          std::vector<double>(3 * cnt),
          std::vector<double>(3 * cnt)};
    table37.contract(rmat.data(), cnt, o.contract.data());
    table37_f.contract(rmat.data(), cnt, o.contract_f.data());
    core::descriptor_forward(a_mat.data(), m, m_sub, o.desc.data());
    simd::pick_pair_gradients(lvl)(g_rows.data(), d_rows.data(), static_cast<int>(cnt),
                                   o.pair.data());
    simd::pick_env_rows(lvl)(diff.data(), cnt, kRs, kRc, o.env_r.data(), o.env_d.data());
    simd::pick_pair_gradients_diff(lvl)(g_rows.data(), diff_streams.data(),
                                        static_cast<int>(cnt), kRs, kRc, o.pair_diff.data());
    simd::pick_pair_gradients(lvl)(g_rows.data(), o.env_d.data(), static_cast<int>(cnt),
                                   o.pair_env.data());
    return o;
  };
  const Out ref = run(simd::Level::Scalar);
  for (simd::Level lvl : available_levels()) {
    if (lvl == simd::Level::Scalar) continue;
    const Out o = run(lvl);
    EXPECT_TRUE(bitwise_equal(o.table.g_row, ref.table.g_row)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.table.dg_row, ref.table.dg_row)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.table.g_batch, ref.table.g_batch)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.contract, ref.contract)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.contract_f, ref.contract_f)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.desc, ref.desc)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.pair, ref.pair)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.env_r, ref.env_r)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.env_d, ref.env_d)) << simd::name(lvl);
    EXPECT_TRUE(bitwise_equal(o.pair_diff, ref.pair_diff)) << simd::name(lvl);
  }
  for (simd::Level lvl : available_levels()) {
    const Out o = run(lvl);
    EXPECT_TRUE(bitwise_equal(o.pair_diff, o.pair_env)) << simd::name(lvl);
  }
}

TEST(SimdParity, StreamingBatchMatchesRegularBitwise) {
  // The streaming hint swaps regular vector stores for non-temporal ones —
  // a pure store-path change; the bits that land in memory must be
  // identical. 64-byte-aligned outputs engage the NT path (m = 32 full
  // blocks, m = 24 a partial block whose tail mixes regular scalar stores
  // into the same rows); the misaligned case must fall back cleanly.
  for (std::size_t m_out : {std::size_t{32}, std::size_t{24}}) {
    const auto table = make_table(m_out, 9);
    const auto s = probe_set(table.lo(), table.hi());
    const std::size_t m = table.output_dim();
    AlignedVector<double> g_reg(s.size() * m), dg_reg(s.size() * m);
    AlignedVector<double> g_nt(s.size() * m), dg_nt(s.size() * m);
    for (simd::Level lvl : available_levels()) {
      LevelGuard guard(lvl);
      table.eval_with_deriv_batch(s.data(), 1, s.size(), g_reg.data(), dg_reg.data(), m,
                                  /*streaming=*/false);
      table.eval_with_deriv_batch(s.data(), 1, s.size(), g_nt.data(), dg_nt.data(), m,
                                  /*streaming=*/true);
      EXPECT_EQ(0, std::memcmp(g_reg.data(), g_nt.data(), s.size() * m * sizeof(double)))
          << "m " << m_out << " " << simd::name(lvl);
      EXPECT_EQ(0, std::memcmp(dg_reg.data(), dg_nt.data(), s.size() * m * sizeof(double)))
          << "m " << m_out << " " << simd::name(lvl);
      // Misaligned rows (offset by one double) must take the fallback and
      // still produce the same bits.
      AlignedVector<double> g_off(s.size() * m + 1), dg_off(s.size() * m + 1);
      table.eval_with_deriv_batch(s.data(), 1, s.size(), g_off.data() + 1, dg_off.data() + 1,
                                  m, /*streaming=*/true);
      EXPECT_EQ(0, std::memcmp(g_reg.data(), g_off.data() + 1, s.size() * m * sizeof(double)))
          << "m " << m_out << " " << simd::name(lvl);
    }
  }
}

TEST(SimdParity, ExtrapolationTelemetryIsLevelIndependent) {
  const auto s = probe_set(0.1, 1.9);
  std::vector<std::size_t> counts;
  for (simd::Level lvl : available_levels()) {
    const auto table = make_table(32, 8);  // fresh table: counter starts at 0
    LevelGuard guard(lvl);
    (void)run_table(table, s);
    counts.push_back(table.extrapolations());
  }
  ASSERT_FALSE(counts.empty());
  EXPECT_GT(counts[0], 0u);
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_EQ(counts[i], counts[0]);
}

TEST(SimdParity, TanhBatchMatchesScalarEvalPerLevel) {
  const TanhTable& t = default_tanh_table();
  std::vector<double> x = {0.0,   -0.0, 7.999999, -7.999999, 8.0, -8.0, 100.0,
                           -1e12, 0.3,  -0.3,     5.5,       std::nextafter(8.0, 0.0),
                           -std::nextafter(8.0, 0.0)};
  Rng rng(23);
  for (int i = 0; i < 997; ++i) x.push_back(rng.uniform(-9.0, 9.0));  // odd n: tail path
  std::vector<double> y0(x.size()), y(x.size());
  {
    LevelGuard guard(simd::Level::Scalar);
    t.eval_batch(x.data(), y0.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(y0[i], t.eval(x[i])) << "scalar batch must be the plain eval loop";
    }
  }
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    t.eval_batch(x.data(), y.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_LE(ulp_diff(y[i], y0[i]), 1) << simd::name(lvl) << " x = " << x[i];
      if (std::fabs(x[i]) >= 8.0) {
        EXPECT_EQ(y[i], x[i] < 0.0 ? -1.0 : 1.0) << "saturation must stay exact";
      }
    }
  }
}

TEST(SimdParity, LanesMatchesLevel) {
  EXPECT_EQ(simd::lanes(simd::Level::Scalar), 1u);
  EXPECT_EQ(simd::lanes(simd::Level::AVX2), 4u);
  EXPECT_EQ(simd::lanes(simd::Level::AVX512), 8u);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    EXPECT_EQ(simd::lanes(), simd::lanes(lvl));
    EXPECT_EQ(simd::active(), lvl);
  }
  EXPECT_STREQ(simd::name(simd::Level::Scalar), "scalar");
  EXPECT_STREQ(simd::name(simd::Level::AVX2), "avx2");
  EXPECT_STREQ(simd::name(simd::Level::AVX512), "avx512");
}

}  // namespace
}  // namespace dp
