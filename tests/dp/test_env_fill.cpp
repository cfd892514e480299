// The compact environment matrix is counted, then filled in place: slot
// order and content must equal the sort-and-fill oracle byte for byte at
// every thread count, the build's scratch must not scale with the system,
// and slot arrays that grow between builds must read like fresh ones. The
// CSR stores neither derivative rows nor displacements: the displacements
// recomputed from the positions must equal the oracle's stored ones, and
// the rows rebuilt from them its stored rows, byte for byte, at every SIMD
// level.
#include <omp.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "dp/env_mat.hpp"
#include "env_reference.hpp"
#include "fused/fused_model.hpp"
#include "md/lattice.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::core {
namespace {

struct OmpThreadGuard {
  int saved = omp_get_max_threads();
  ~OmpThreadGuard() { omp_set_num_threads(saved); }
};

/// Byte equality of every CSR array over the stored slots, and of the
/// recomputed displacements and rebuilt derivative rows with the oracle's
/// stored ones.
void expect_same_csr(const EnvMat& env, const env_ref::CompactReference& ref,
                     const md::Configuration& sys, const std::string& what) {
  const std::size_t slots = ref.slot_atom.size();
  ASSERT_EQ(env.stored_slots(), slots) << what;
  EXPECT_TRUE(env.deriv.empty()) << what;
  EXPECT_EQ(env.count_by_type, ref.count_by_type) << what;
  EXPECT_EQ(env.block_start, ref.block_start) << what;
  EXPECT_EQ(env.overflow, ref.overflow) << what;
  EXPECT_TRUE(std::equal(ref.slot_atom.begin(), ref.slot_atom.end(), env.slot_atom.begin()))
      << what;
  EXPECT_EQ(0, std::memcmp(env.rmat.data(), ref.rmat.data(), slots * 4 * sizeof(double)))
      << what;
  EXPECT_EQ(0, std::memcmp(env_ref::rebuilt_deriv(env, sys.box, sys.atoms).data(),
                           ref.deriv.data(), slots * 12 * sizeof(double)))
      << what;
  EXPECT_EQ(0, std::memcmp(env_ref::displacements(env, sys.box, sys.atoms).data(),
                           ref.diff.data(), slots * 3 * sizeof(double)))
      << what;
}

/// Builds at 1, 2 and 4 threads (one fresh EnvMat and one reused across
/// the thread counts) and compares each with the oracle.
void expect_matches_oracle(const ModelConfig& cfg, const md::Configuration& sys,
                           const md::NeighborList& nl) {
  OmpThreadGuard guard;
  const auto ref = env_ref::build_compact_reference(cfg, sys.box, sys.atoms, nl);
  ASSERT_GT(ref.slot_atom.size(), 0u);
  EnvMat reused;
  EnvMatWorkspace ws;
  for (int t : {1, 2, 4}) {
    omp_set_num_threads(t);
    EnvMat fresh;
    build_env_mat(cfg, sys.box, sys.atoms, nl, fresh);
    build_env_mat(cfg, sys.box, sys.atoms, nl, reused, ws);
    expect_same_csr(fresh, ref, sys, "fresh, threads=" + std::to_string(t));
    expect_same_csr(reused, ref, sys, "reused, threads=" + std::to_string(t));
  }
}

md::NeighborList neighbors_of(const ModelConfig& cfg, const md::Configuration& sys) {
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  return nl;
}

TEST(EnvFill, PerfectLatticeTiesBreakByAtomIndex) {
  // Every shell of a perfect FCC lattice is a run of equal r^2: only the
  // atom index orders it. Five cells a side take the cell-list build, whose
  // lists follow cell order, not atom order.
  const ModelConfig cfg = ModelConfig::tiny();
  const auto sys = md::make_fcc(5, 5, 5);
  expect_matches_oracle(cfg, sys, neighbors_of(cfg, sys));
}

TEST(EnvFill, JitteredLatticeTwoTypes) {
  const ModelConfig cfg = ModelConfig::tiny(2);
  auto sys = md::make_fcc(4, 4, 4, 3.634, 63.546, 0.15, 21);
  sys.atoms.mass_by_type = {63.546, 63.546};
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    sys.atoms.type[i] = static_cast<int>(i * 7 / 3 % 2);
  expect_matches_oracle(cfg, sys, neighbors_of(cfg, sys));
}

TEST(EnvFill, ShellClusterInOneBucket) {
  // 30 neighbors at exactly r^2 = 9 — the 6 permutations of (+-3, 0, 0) and
  // the 24 of (+-2, +-2, +-1) — all in one r^2 bucket, added in a shuffled
  // order with alternating types.
  std::vector<Vec3> shell;
  for (int axis = 0; axis < 3; ++axis)
    for (double s : {-3.0, 3.0}) {
      Vec3 v;
      v[static_cast<std::size_t>(axis)] = s;
      shell.push_back(v);
    }
  for (int one = 0; one < 3; ++one)
    for (double a : {-2.0, 2.0})
      for (double b : {-2.0, 2.0})
        for (double c : {-1.0, 1.0}) {
          Vec3 v;
          v[static_cast<std::size_t>(one)] = c;
          v[static_cast<std::size_t>((one + 1) % 3)] = a;
          v[static_cast<std::size_t>((one + 2) % 3)] = b;
          shell.push_back(v);
        }
  ASSERT_EQ(shell.size(), 30u);
  std::vector<std::size_t> order(shell.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(5);
  for (std::size_t k = order.size() - 1; k > 0; --k)
    std::swap(order[k], order[rng.uniform_index(k + 1)]);

  const ModelConfig cfg = ModelConfig::tiny(2);
  md::Configuration sys;
  sys.box = md::Box(40, 40, 40);
  sys.atoms.mass_by_type = {1.0, 1.0};
  const Vec3 center{20, 20, 20};
  for (std::size_t k = 0; k < 30; ++k) {
    if (k == 15) sys.atoms.add(center, 0);
    sys.atoms.add(center + shell[order[k]], static_cast<int>(k % 2));
  }
  const auto nl = neighbors_of(cfg, sys);
  ASSERT_EQ(nl.neighbors(15).size(), 30u);
  expect_matches_oracle(cfg, sys, nl);
}

TEST(EnvFill, FarthestFirstNeighborList) {
  // A box too small for the cell grid takes the brute-force build, whose
  // lists ascend in atom index; neighbors placed ever closer with rising
  // index therefore arrive in exactly the reverse of slot order.
  ModelConfig cfg = ModelConfig::tiny();
  cfg.sel = {64};
  md::Configuration sys;
  sys.box = md::Box(12, 12, 12);
  sys.atoms.mass_by_type = {1.0};
  const Vec3 center{6, 6, 6};
  sys.atoms.add(center, 0);
  Rng rng(9);
  constexpr int kNeighbors = 40;
  for (int k = 0; k < kNeighbors; ++k)
    sys.atoms.add(center + rng.unit_vector() * (3.95 - 0.07 * k), 0);
  const auto nl = neighbors_of(cfg, sys);
  ASSERT_EQ(nl.neighbors(0).size(), static_cast<std::size_t>(kNeighbors));
  ASSERT_EQ(nl.neighbors(0).front(), 1);
  ASSERT_EQ(nl.neighbors(0).back(), kNeighbors);
  expect_matches_oracle(cfg, sys, nl);
}

TEST(EnvFill, SelOverflowKeepsTheNearest) {
  ModelConfig cfg = ModelConfig::tiny(2);
  cfg.sel = {5, 4};
  auto sys = md::make_fcc(4, 4, 4, 3.634, 63.546, 0.15, 22);
  sys.atoms.mass_by_type = {63.546, 63.546};
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    sys.atoms.type[i] = static_cast<int>(i % 2);
  const auto nl = neighbors_of(cfg, sys);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);
  ASSERT_GT(env.overflow, 0u);
  expect_matches_oracle(cfg, sys, nl);
}

TEST(EnvFill, WorkspaceDoesNotScaleWithAtoms) {
  // The scratch is sized by one neighbor list, which a perfect lattice
  // makes the same for every atom of either system size.
  OmpThreadGuard guard;
  omp_set_num_threads(4);
  const ModelConfig cfg = ModelConfig::tiny();
  std::size_t bytes[2] = {};
  std::size_t slots[2] = {};
  for (int k = 0; k < 2; ++k) {
    const auto sys = md::make_fcc(4 << k, 4 << k, 4 << k);
    const auto nl = neighbors_of(cfg, sys);
    EnvMat env;
    EnvMatWorkspace ws;
    build_env_mat(cfg, sys.box, sys.atoms, nl, env, ws);
    bytes[k] = ws.bytes();
    slots[k] = env.stored_slots();
  }
  ASSERT_EQ(slots[1], 8 * slots[0]);
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(EnvFill, GrownSlotArraysMatchAFreshBuild) {
  // Compressing the box pulls the third FCC shell (4.45 A -> 3.78 A) inside
  // the 4 A cutoff: the slot count more than doubles, past the capacity of
  // the first build's arrays, whose stale contents are discarded.
  OmpThreadGuard guard;
  omp_set_num_threads(4);
  ModelConfig cfg = ModelConfig::tiny();
  cfg.sel = {64};
  const auto loose = md::make_fcc(4, 4, 4, 3.634, 63.546, 0.05, 23);
  auto dense = loose;
  constexpr double kSquash = 0.85;
  const Vec3 l = loose.box.lengths();
  dense.box = md::Box(l.x * kSquash, l.y * kSquash, l.z * kSquash);
  for (Vec3& r : dense.atoms.pos) r = r * kSquash;
  const auto nl_loose = neighbors_of(cfg, loose);
  const auto nl_dense = neighbors_of(cfg, dense);

  EnvMat env;
  EnvMatWorkspace ws;
  build_env_mat(cfg, loose.box, loose.atoms, nl_loose, env, ws);
  const std::size_t first = env.stored_slots();
  const std::size_t first_capacity = env.rmat.capacity();
  build_env_mat(cfg, dense.box, dense.atoms, nl_dense, env, ws);
  ASSERT_GT(env.stored_slots(), 2 * first);
  ASSERT_GT(env.stored_slots() * 4, first_capacity);
  EnvMat fresh;
  build_env_mat(cfg, dense.box, dense.atoms, nl_dense, fresh);
  const auto ref = env_ref::build_compact_reference(cfg, dense.box, dense.atoms, nl_dense);
  expect_same_csr(env, ref, dense, "grown");
  expect_same_csr(fresh, ref, dense, "fresh");

  // The same through a model whose CSR grows with the slot count.
  DPModel model(cfg, 23);
  tab::TabulatedDP tab(model, {0.0, tab::TabulatedDP::s_max(cfg, 0.9), 0.005});
  fused::FusedDP grown(tab);
  md::Atoms warm = loose.atoms;
  grown.compute(loose.box, warm, nl_loose);
  md::Atoms a = dense.atoms;
  md::Atoms b = dense.atoms;
  const auto ra = grown.compute(dense.box, a, nl_dense);
  fused::FusedDP fresh_ff(tab);
  const auto rb = fresh_ff.compute(dense.box, b, nl_dense);
  EXPECT_EQ(ra.energy, rb.energy);
  EXPECT_EQ(0, std::memcmp(a.force.data(), b.force.data(), a.size() * sizeof(Vec3)));
  EXPECT_EQ(0, std::memcmp(&ra.virial, &rb.virial, sizeof(Mat3)));
}

TEST(EnvFill, CompactStoresNoDerivative) {
  // A compact slot is rmat (4 doubles) and slot_atom (1 int); the
  // displacement and the derivative rows are rebuilt where prod-force reads
  // them. An EnvMat that held a dense build gives its deriv array back.
  const ModelConfig cfg = ModelConfig::tiny(2);
  auto sys = md::make_fcc(4, 4, 4, 3.634, 63.546, 0.15, 24);
  sys.atoms.mass_by_type = {63.546, 63.546};
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    sys.atoms.type[i] = static_cast<int>(i % 2);
  const auto nl = neighbors_of(cfg, sys);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env, EnvMatKernel::Baseline);
  ASSERT_GT(env.deriv.capacity(), 0u);
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);
  ASSERT_TRUE(env.compact());
  EXPECT_TRUE(env.deriv.empty());
  EXPECT_EQ(env.deriv.capacity(), 0u);
  EXPECT_EQ(env.rcut, cfg.rcut);
  EXPECT_EQ(env.rcut_smth, cfg.rcut_smth);
  const std::size_t slots = env.stored_slots();
  const std::size_t blocks = env.n_atoms * static_cast<std::size_t>(env.ntypes);
  ASSERT_GT(slots, 0u);
  EXPECT_EQ(env.compact_bytes(), slots * (4 * sizeof(double) + sizeof(int)) +
                                     blocks * sizeof(int) + (blocks + 1) * sizeof(std::size_t));
}

/// Displacements whose r^2 (the rows' fma sequence) lies below rcut^2 while
/// sqrt(r^2) rounds to rcut, where the switch's r >= rcut branch zeroes
/// the rows although the slot is in the CSR.
std::vector<Vec3> boundary_displacements(double rcut, std::size_t want) {
  std::vector<Vec3> out;
  const double rc2 = rcut * rcut;
  Rng rng(31);
  for (int k = 0; k < 1000000 && out.size() < want; ++k) {
    const Vec3 d = rng.unit_vector() * rcut;
    const double r2 = env_ref::r2_of(d);
    if (r2 < rc2 && std::sqrt(r2) >= rcut) out.push_back(d);
  }
  return out;
}

TEST(EnvFill, RebuiltRowsMatchTheOracleAtEveryLevel) {
  // Every slot of two EnvFill systems, a radial sweep over (0, rcut) that
  // crosses rcut_smth, the points on either side of it, and the boundary
  // displacements: at every level the rows rebuilt from d equal the
  // oracle's stored rows byte for byte.
  ModelConfig cfg = ModelConfig::tiny(2);
  cfg.rcut = 5.0;  // r^2 is 2.5x finer than r here, so boundary points exist
  cfg.rcut_smth = 2.5;
  std::vector<Vec3> disp;
  for (int k = 0; k < 2; ++k) {
    auto sys = k == 0 ? md::make_fcc(5, 5, 5) : md::make_fcc(4, 4, 4, 3.634, 63.546, 0.15, 21);
    sys.atoms.mass_by_type = {63.546, 63.546};
    for (std::size_t i = 0; i < sys.atoms.size(); ++i)
      sys.atoms.type[i] = static_cast<int>(i * 7 / 3 % 2);
    EnvMat env;
    build_env_mat(cfg, sys.box, sys.atoms, neighbors_of(cfg, sys), env);
    const std::vector<double> d = env_ref::displacements(env, sys.box, sys.atoms);
    for (std::size_t s = 0; s < env.stored_slots(); ++s)
      disp.push_back({d[3 * s], d[3 * s + 1], d[3 * s + 2]});
  }
  Rng rng(30);
  for (int k = 1; k < 4000; ++k) disp.push_back(rng.unit_vector() * (cfg.rcut * k / 4000.0));
  for (double r : {std::nextafter(cfg.rcut_smth, 0.0), cfg.rcut_smth,
                   std::nextafter(cfg.rcut_smth, cfg.rcut)})
    disp.push_back({0.0, r, 0.0});
  const auto edge = boundary_displacements(cfg.rcut, 64);
  ASSERT_EQ(edge.size(), 64u);
  disp.insert(disp.end(), edge.begin(), edge.end());

  const std::size_t n = disp.size();
  std::vector<double> diff(3 * n), ref_r(4 * n), ref_d(12 * n);
  for (std::size_t k = 0; k < n; ++k) {
    diff[3 * k] = disp[k].x;
    diff[3 * k + 1] = disp[k].y;
    diff[3 * k + 2] = disp[k].z;
    env_ref::fill_slot(ref_r.data() + 4 * k, ref_d.data() + 12 * k, disp[k], cfg.rcut_smth,
                       cfg.rcut);
  }
  for (std::size_t k = n - edge.size(); k < n; ++k) ASSERT_EQ(ref_r[4 * k], 0.0);
  const int top = static_cast<int>(simd::max_supported());
  for (int lvl = 0; lvl <= top; ++lvl) {
    const auto level = static_cast<simd::Level>(lvl);
    std::vector<double> rmat(4 * n), deriv(12 * n);
    simd::pick_env_rows(level)(diff.data(), n, cfg.rcut_smth, cfg.rcut, rmat.data(),
                               deriv.data());
    EXPECT_EQ(0, std::memcmp(rmat.data(), ref_r.data(), rmat.size() * sizeof(double)))
        << simd::name(level);
    EXPECT_EQ(0, std::memcmp(deriv.data(), ref_d.data(), deriv.size() * sizeof(double)))
        << simd::name(level);
  }
}

}  // namespace
}  // namespace dp::core
