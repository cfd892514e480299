// Compact CSR environment matrix: parity against the dense baseline,
// bitwise determinism across thread counts, and the allocation-free steady
// state of the persistent workspaces (ISSUE: compact env + deterministic
// parallel force accumulation).
#include <omp.h>

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dp/baseline_model.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "env_reference.hpp"
#include "fused/fused_model.hpp"
#include "md/lattice.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::core {
namespace {

/// Restores the OpenMP max-thread setting on scope exit so in-test
/// omp_set_num_threads sweeps don't leak into sibling tests.
struct OmpThreadGuard {
  int saved = omp_get_max_threads();
  ~OmpThreadGuard() { omp_set_num_threads(saved); }
};

void expect_model_parity(const ModelConfig& cfg, const md::Configuration& sys,
                         std::uint64_t seed) {
  DPModel model(cfg, seed);
  BaselineDP dense(model, EnvMatKernel::Baseline);
  BaselineDP compact(model, EnvMatKernel::Optimized);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);

  md::Atoms atoms_a = sys.atoms;
  md::Atoms atoms_b = sys.atoms;
  const auto ra = dense.compute(sys.box, atoms_a, nl);
  const auto rb = compact.compute(sys.box, atoms_b, nl);
  ASSERT_FALSE(dense.env().compact());
  ASSERT_TRUE(compact.env().compact());
  EXPECT_NEAR(ra.energy, rb.energy, 1e-12 * static_cast<double>(sys.atoms.size()));
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_LT(norm(atoms_a.force[i] - atoms_b.force[i]), 1e-12) << "atom " << i;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(ra.virial(r, c), rb.virial(r, c), 1e-10);
}

TEST(EnvCompact, MatchesDenseBaselineWater) {
  expect_model_parity(ModelConfig::tiny(2), md::make_water(1, 1, 1, 11), 11);
}

TEST(EnvCompact, MatchesDenseBaselineCopperLikePadding) {
  // Copper-like slot reservation: sel far above the ambient neighbor count,
  // so the dense layout is mostly padding (the paper's redundant zeros).
  ModelConfig cfg = ModelConfig::tiny();
  cfg.sel = {200};
  auto sys = md::make_fcc(3, 3, 3, 3.634, 63.546, 0.1, 12);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);
  ASSERT_GT(env.padding_fraction(), 0.5);
  ASSERT_LT(env.compact_bytes(), env.dense_bytes() / 2);
  expect_model_parity(cfg, sys, 12);
}

TEST(EnvCompact, BuildBitwiseIdenticalAcrossThreadCounts) {
  OmpThreadGuard guard;
  auto cfg = ModelConfig::tiny(2);
  auto sys = md::make_water(1, 1, 1, 13);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);

  omp_set_num_threads(1);
  EnvMat ref;
  build_env_mat(cfg, sys.box, sys.atoms, nl, ref);
  for (int t : {2, 8}) {
    omp_set_num_threads(t);
    EnvMat env;
    build_env_mat(cfg, sys.box, sys.atoms, nl, env);
    ASSERT_EQ(env.stored_slots(), ref.stored_slots()) << "threads=" << t;
    EXPECT_EQ(env.block_start, ref.block_start) << "threads=" << t;
    EXPECT_EQ(env.slot_atom, ref.slot_atom) << "threads=" << t;
    EXPECT_EQ(0, std::memcmp(env.rmat.data(), ref.rmat.data(),
                             ref.stored_slots() * 4 * sizeof(double)))
        << "threads=" << t;
    EXPECT_EQ(0, std::memcmp(env_ref::rebuilt_deriv(env, sys.box, sys.atoms).data(),
                             env_ref::rebuilt_deriv(ref, sys.box, sys.atoms).data(),
                             ref.stored_slots() * 12 * sizeof(double)))
        << "threads=" << t;
    EXPECT_EQ(0, std::memcmp(env_ref::displacements(env, sys.box, sys.atoms).data(),
                             env_ref::displacements(ref, sys.box, sys.atoms).data(),
                             ref.stored_slots() * 3 * sizeof(double)))
        << "threads=" << t;
  }
}

TEST(EnvCompact, ForcesBitwiseIdenticalAcrossThreadCounts) {
  // The full compact pipeline — parallel env build, fused descriptor,
  // 16-lane force/virial fold — must be byte-identical at any thread count.
  OmpThreadGuard guard;
  auto cfg = ModelConfig::tiny(2);
  DPModel model(cfg, 14);
  auto sys = md::make_water(1, 1, 1, 14);
  tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(cfg, 0.9), 0.005};
  tab::TabulatedDP tab(model, spec);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);

  omp_set_num_threads(1);
  fused::FusedDP ref_ff(tab);
  md::Atoms ref_atoms = sys.atoms;
  const auto ref = ref_ff.compute(sys.box, ref_atoms, nl);
  for (int t : {2, 8}) {
    omp_set_num_threads(t);
    fused::FusedDP ff(tab);
    md::Atoms atoms = sys.atoms;
    const auto out = ff.compute(sys.box, atoms, nl);
    EXPECT_EQ(0, std::memcmp(atoms.force.data(), ref_atoms.force.data(),
                             atoms.size() * sizeof(Vec3)))
        << "threads=" << t;
    EXPECT_EQ(0, std::memcmp(&out.virial, &ref.virial, sizeof(Mat3))) << "threads=" << t;
  }
}

TEST(EnvCompact, PeriodicProdForceMatchesDenseBitwise) {
  // A periodic world without ghosts, so prod-force takes the minimum image
  // of every displacement it recomputes from the positions. The compact
  // layout rebuilds each slot's derivative rows from that displacement, the
  // dense layout reads the rows its build stored: the same gradient per
  // logical slot gives the same forces and virial, bit for bit.
  OmpThreadGuard guard;
  omp_set_num_threads(4);
  const ModelConfig cfg = ModelConfig::tiny(2);
  auto sys = md::make_fcc(4, 4, 4, 3.634, 63.546, 0.15, 17);
  sys.atoms.mass_by_type = {63.546, 63.546};
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    sys.atoms.type[i] = static_cast<int>(i * 7 / 3 % 2);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat dense, compact;
  build_env_mat(cfg, sys.box, sys.atoms, nl, dense, EnvMatKernel::Baseline);
  build_env_mat(cfg, sys.box, sys.atoms, nl, compact);
  ASSERT_EQ(dense.count_by_type, compact.count_by_type);

  AlignedVector<double> g_dense(dense.stored_slots() * 4, 0.0);
  AlignedVector<double> g_compact(compact.stored_slots() * 4);
  Rng rng(18);
  std::size_t wrapped = 0;
  for (std::size_t i = 0; i < compact.n_atoms; ++i)
    for (int t = 0; t < compact.ntypes; ++t)
      for (int k = 0; k < compact.count(i, t); ++k) {
        const std::size_t sd = dense.block_begin(i, t) + static_cast<std::size_t>(k);
        const std::size_t sc = compact.block_begin(i, t) + static_cast<std::size_t>(k);
        for (std::size_t c = 0; c < 4; ++c)
          g_dense[4 * sd + c] = g_compact[4 * sc + c] = rng.uniform(-1.0, 1.0);
        const Vec3 raw = sys.atoms.pos[static_cast<std::size_t>(compact.atom_of(sc))] -
                         sys.atoms.pos[i];
        if (norm(raw) > cfg.rcut) ++wrapped;
      }
  ASSERT_GT(wrapped, 0u);  // some slots exist only through the minimum image

  std::vector<Vec3> f_dense(sys.atoms.size()), f_compact(sys.atoms.size());
  Mat3 w_dense{}, w_compact{};
  prod_force_virial(dense, g_dense.data(), sys.box, sys.atoms, true, f_dense, w_dense);
  prod_force_virial(compact, g_compact.data(), sys.box, sys.atoms, true, f_compact, w_compact);
  EXPECT_EQ(0, std::memcmp(f_dense.data(), f_compact.data(), f_dense.size() * sizeof(Vec3)));
  EXPECT_EQ(0, std::memcmp(&w_dense, &w_compact, sizeof(Mat3)));
}

TEST(EnvCompact, SteadyStateIsAllocationFree) {
  // After the first call sizes the grow-only workspaces, repeated steps must
  // not move a single byte of capacity — in the env build, the model scratch,
  // and the force-fold lanes alike.
  auto cfg = ModelConfig::tiny(2);
  DPModel model(cfg, 15);
  auto sys = md::make_water(1, 1, 1, 15);
  tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(cfg, 0.9), 0.005};
  tab::TabulatedDP tab(model, spec);
  fused::FusedDP ff(tab);
  BaselineDP base(model);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);

  md::Atoms atoms = sys.atoms;
  ff.compute(sys.box, atoms, nl);
  base.compute(sys.box, atoms, nl);
  const std::size_t fused_bytes = ff.workspace_bytes();
  const std::size_t base_bytes = base.workspace_bytes();
  ASSERT_GT(fused_bytes, 0u);
  ASSERT_GT(base_bytes, 0u);
  for (int step = 0; step < 4; ++step) {
    ff.compute(sys.box, atoms, nl);
    base.compute(sys.box, atoms, nl);
    EXPECT_EQ(ff.workspace_bytes(), fused_bytes) << "step " << step;
    EXPECT_EQ(base.workspace_bytes(), base_bytes) << "step " << step;
  }

  // The standalone build with a caller-owned workspace plateaus too.
  EnvMat env;
  EnvMatWorkspace ws;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env, ws);
  const std::size_t env_bytes = env.storage_bytes() + ws.bytes();
  ASSERT_GT(env_bytes, 0u);
  for (int step = 0; step < 3; ++step) {
    build_env_mat(cfg, sys.box, sys.atoms, nl, env, ws);
    EXPECT_EQ(env.storage_bytes() + ws.bytes(), env_bytes) << "step " << step;
  }
}

TEST(EnvCompact, FootprintAccountingConsistent) {
  auto cfg = ModelConfig::tiny(2);
  auto sys = md::make_water(1, 1, 1, 16);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat dense, compact;
  build_env_mat(cfg, sys.box, sys.atoms, nl, dense, EnvMatKernel::Baseline);
  build_env_mat(cfg, sys.box, sys.atoms, nl, compact, EnvMatKernel::Optimized);
  // Both layouts report the same dense footprint (what the paper's baseline
  // would occupy); only the compact one stores less than it.
  EXPECT_EQ(dense.dense_bytes(), compact.dense_bytes());
  EXPECT_LT(compact.compact_bytes(), compact.dense_bytes());
  EXPECT_EQ(dense.filled_slots(), compact.filled_slots());
  EXPECT_EQ(compact.stored_slots(), compact.filled_slots());
}

}  // namespace
}  // namespace dp::core
