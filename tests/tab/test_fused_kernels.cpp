// Oracle for the fused kernels (Table::contract and Table::contract_gradient,
// the register-resident pass 1 and pass 2 of common/simd_kernels.inc). At
// every SIMD level this host reaches, for double, float and _Float16 tables,
// both passes must equal a plain std::fma reference written here, bit for
// bit:
//   * pass 1: every A element is one fma chain over the run's slots, in slot
//     order, starting from its previous value;
//   * pass 2: per slot, lane l of each dot folds channels b = l (mod W)
//     below the last full vector, the W lanes fold by halving (the level's
//     reduce_add tree), and the m % W tail continues the chain.
// The rows come from the channel-major AoS reference (aos_reference.hpp).
// Sizes: m = 16, 37, 64, 128 (tails at every width); runs of 0, 1, 7, 45
// and 500 slots (500 is the dense padded run that Fig 7's
// skip_padding = false rung walks, longer than one located group); s
// in-domain and extrapolating. Each pass counts an out-of-domain slot once,
// as a single-row walk of the same s does, unless told not to. Pass 2
// written over its own rows (grad == rmat, as the fused-kernel paths call
// it) equals the out-of-place result bit for bit, on runs that end on
// either side of the 256-slot group seam.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "aos_reference.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "tab/table.hpp"

namespace dp {
namespace {

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

template <class V>
bool bitwise_equal(const V& a, const V& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

template <class C>
tab::Table<C> narrow(const tab::TabulatedEmbedding& ref) {
  if constexpr (std::is_same_v<C, double>)
    return ref;
  else
    return tab::Table<C>(ref);
}

/// Lane width of table type C's kernels at `lvl`.
template <class C>
std::size_t width(simd::Level lvl) {
  return std::is_same_v<C, double> ? simd::lanes(lvl) : simd::lanes_sp(lvl);
}

/// The level's reduce_add tree: fold the upper half onto the lower until one
/// lane is left.
template <class T>
T fold_lanes(std::vector<T> x) {
  for (std::size_t w = x.size(); w > 1; w /= 2)
    for (std::size_t i = 0; i < w / 2; ++i) x[i] = x[i] + x[i + w / 2];
  return x[0];
}

template <class C>
struct Case {
  using Real = simd::TableReal<C>;
  tab::TabulatedEmbedding ref;
  tab::Table<C> table;
  table_ref::AosReference<C> aos;
  std::size_t m;

  explicit Case(std::size_t m_out)
      : ref(make_ref(m_out)), table(narrow<C>(ref)), aos(ref, table), m(m_out) {}

  static tab::TabulatedEmbedding make_ref(std::size_t m_out) {
    nn::EmbeddingNet net({8, 16, m_out});
    Rng rng(31 + m_out);
    net.init_random(rng);
    return tab::TabulatedEmbedding(net, {0.1, 1.9, 0.01});
  }

  /// Weight of column c of env row `row` (the unit weight: 1 in column 0).
  static Real weight(const double* row, std::size_t c, std::size_t cols) {
    return cols == 1 ? Real(1) : static_cast<Real>(row[c]);
  }

  std::vector<Real> pass1(const std::vector<double>& rmat, std::size_t cnt, std::size_t cols,
                          std::vector<Real> a) const {
    std::vector<Real> g(m), dg(m);
    for (std::size_t k = 0; k < cnt; ++k) {
      const double* row = rmat.data() + 4 * k;
      aos(static_cast<Real>(row[0]), g.data(), dg.data());
      for (std::size_t c = 0; c < cols; ++c)
        for (std::size_t b = 0; b < m; ++b)
          a[c * m + b] = std::fma(weight(row, c, cols), g[b], a[c * m + b]);
    }
    return a;
  }

  std::vector<double> pass2(const std::vector<double>& rmat, std::size_t cnt, std::size_t cols,
                            const std::vector<Real>& g_a, std::size_t w) const {
    std::vector<double> out(4 * cnt);
    std::vector<Real> g(m), dg(m);
    const std::size_t mv = m / w * w;
    for (std::size_t k = 0; k < cnt; ++k) {
      const double* row = rmat.data() + 4 * k;
      aos(static_cast<Real>(row[0]), g.data(), dg.data());
      std::vector<std::vector<Real>> lanes(cols, std::vector<Real>(w, Real(0)));
      std::vector<Real> lanes_s(w, Real(0));
      const auto term = [&](std::size_t b) {
        Real x = weight(row, 0, cols) * g_a[b];
        for (std::size_t c = 1; c < cols; ++c)
          x = std::fma(weight(row, c, cols), g_a[c * m + b], x);
        return x;
      };
      for (std::size_t b = 0; b < mv; ++b) {
        for (std::size_t c = 0; c < cols; ++c)
          lanes[c][b % w] = std::fma(g_a[c * m + b], g[b], lanes[c][b % w]);
        lanes_s[b % w] = std::fma(term(b), dg[b], lanes_s[b % w]);
      }
      std::vector<Real> acc(cols);
      for (std::size_t c = 0; c < cols; ++c) acc[c] = fold_lanes(lanes[c]);
      Real acc_s = fold_lanes(lanes_s);
      for (std::size_t b = mv; b < m; ++b) {
        for (std::size_t c = 0; c < cols; ++c) acc[c] = std::fma(g_a[c * m + b], g[b], acc[c]);
        acc_s = std::fma(term(b), dg[b], acc_s);
      }
      double* o = out.data() + 4 * k;
      if (cols == 4) {
        o[0] = static_cast<double>(acc[0]) + static_cast<double>(acc_s);
        for (std::size_t c = 1; c < 4; ++c) o[c] = acc[c];
      } else {
        o[0] = acc_s;
      }
    }
    return out;
  }
};

/// `cnt` env rows: s in [lo, hi], or with `extrapolate` a third of them
/// 0.05-0.5 outside it on either side; the directional columns in [-1, 1].
std::vector<double> env_rows(std::size_t cnt, bool extrapolate, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rmat(4 * cnt);
  for (std::size_t k = 0; k < cnt; ++k) {
    double s = rng.uniform(0.1, 1.9);
    if (extrapolate && k % 3 == 1) s = k % 2 ? rng.uniform(1.95, 2.4) : rng.uniform(-0.4, 0.05);
    rmat[4 * k] = s;
    for (std::size_t c = 1; c < 4; ++c) rmat[4 * k + c] = rng.uniform(-1.0, 1.0);
  }
  return rmat;
}

template <class C>
void expect_passes_match_reference() {
  using Real = simd::TableReal<C>;
  for (const std::size_t m : {16u, 37u, 64u, 128u}) {
    const Case<C> cs(m);
    Rng rng(7 + m);
    std::vector<Real> a0(4 * m), g_a(4 * m);
    for (Real& x : a0) x = static_cast<Real>(rng.uniform(-1.0, 1.0));
    for (Real& x : g_a) x = static_cast<Real>(rng.uniform(-1.0, 1.0));
    for (const std::size_t cnt : {0u, 1u, 7u, 45u, 500u}) {
      for (const bool extrapolate : {false, true}) {
        const auto rmat = env_rows(cnt, extrapolate, 100 * m + cnt);
        for (const std::size_t cols : {4u, 1u}) {
          const bool unit = cols == 1;
          const auto a_ref = cs.pass1(rmat, cnt, cols, a0);
          for (simd::Level lvl : available_levels()) {
            LevelGuard guard(lvl);
            const std::string where = std::string(simd::name(lvl)) + " m " + std::to_string(m) +
                                      " run " + std::to_string(cnt) + " cols " +
                                      std::to_string(cols) + (extrapolate ? " extrap" : "");
            std::vector<Real> a = a0;
            cs.table.contract(rmat.data(), cnt, a.data(), unit);
            EXPECT_TRUE(bitwise_equal(a, a_ref)) << "pass 1 " << where;
            std::vector<double> grad(4 * cnt, -1.0);
            cs.table.contract_gradient(rmat.data(), cnt, g_a.data(), grad.data(), unit);
            EXPECT_TRUE(bitwise_equal(grad, cs.pass2(rmat, cnt, cols, g_a, width<C>(lvl))))
                << "pass 2 " << where;
          }
        }
      }
    }
  }
}

TEST(FusedKernels, DoubleTableMatchesTheFmaReferenceBitwise) {
  expect_passes_match_reference<double>();
}
TEST(FusedKernels, FloatTableMatchesTheFmaReferenceBitwise) {
  expect_passes_match_reference<float>();
}
TEST(FusedKernels, HalfTableMatchesTheFmaReferenceBitwise) {
  expect_passes_match_reference<_Float16>();
}

template <class C>
void expect_in_place_pass2_matches_out_of_place() {
  using Real = simd::TableReal<C>;
  for (const std::size_t m : {37u, 64u}) {
    const Case<C> cs(m);
    Rng rng(13 + m);
    std::vector<Real> g_a(4 * m);
    for (Real& x : g_a) x = static_cast<Real>(rng.uniform(-1.0, 1.0));
    for (const std::size_t cnt : {1u, 255u, 256u, 257u, 600u}) {
      const auto rmat = env_rows(cnt, true, 300 * m + cnt);
      for (const bool unit : {false, true}) {
        for (simd::Level lvl : available_levels()) {
          LevelGuard guard(lvl);
          std::vector<double> grad(4 * cnt, -1.0);
          cs.table.contract_gradient(rmat.data(), cnt, g_a.data(), grad.data(), unit);
          std::vector<double> rows = rmat;
          cs.table.contract_gradient(rows.data(), cnt, g_a.data(), rows.data(), unit);
          EXPECT_TRUE(bitwise_equal(rows, grad))
              << simd::name(lvl) << " m " << m << " run " << cnt << (unit ? " unit" : "");
        }
      }
    }
  }
}

TEST(FusedKernels, PassTwoInPlaceMatchesOutOfPlace) {
  expect_in_place_pass2_matches_out_of_place<double>();
  expect_in_place_pass2_matches_out_of_place<float>();
  expect_in_place_pass2_matches_out_of_place<_Float16>();
}

template <class C>
void expect_one_count_per_slot_and_pass() {
  using Real = simd::TableReal<C>;
  constexpr std::size_t m = 37, cnt = 45;
  const auto rmat = env_rows(cnt, true, 5);
  // What a single-row walk of every slot counts: one per out-of-domain s.
  std::size_t per_walk = 0;
  {
    const Case<C> cs(m);
    std::vector<Real> g(m);
    for (std::size_t k = 0; k < cnt; ++k)
      cs.table.eval(static_cast<Real>(rmat[4 * k]), g.data());
    per_walk = cs.table.extrapolations();
  }
  ASSERT_GT(per_walk, 0u);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    const Case<C> cs(m);  // fresh table: counter starts at 0
    std::vector<Real> a(4 * m), g_a(4 * m, Real(0.5));
    std::vector<double> grad(4 * cnt);
    cs.table.contract(rmat.data(), cnt, a.data());
    EXPECT_EQ(cs.table.extrapolations(), per_walk) << simd::name(lvl);
    cs.table.contract_gradient(rmat.data(), cnt, g_a.data(), grad.data());
    EXPECT_EQ(cs.table.extrapolations(), 2 * per_walk) << simd::name(lvl);
    cs.table.contract_gradient(rmat.data(), cnt, g_a.data(), grad.data(), /*unit_weight=*/true,
                               /*count_lookups=*/false);
    EXPECT_EQ(cs.table.extrapolations(), 2 * per_walk) << simd::name(lvl);
  }
}

TEST(FusedKernels, EachPassCountsAnExtrapolationOncePerSlot) {
  expect_one_count_per_slot_and_pass<double>();
  expect_one_count_per_slot_and_pass<float>();
  expect_one_count_per_slot_and_pass<_Float16>();
}

}  // namespace
}  // namespace dp
