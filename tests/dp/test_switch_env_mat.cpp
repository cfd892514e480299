#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "dp/env_mat.hpp"
#include "dp/switch_fn.hpp"
#include "env_reference.hpp"
#include "md/lattice.hpp"

namespace dp::core {
namespace {

TEST(SwitchFn, EqualsInverseRInsideSmoothRadius) {
  for (double r : {0.5, 1.0, 1.9}) {
    auto sw = switch_fn(r, 2.0, 4.0);
    EXPECT_DOUBLE_EQ(sw.s, 1.0 / r);
    EXPECT_DOUBLE_EQ(sw.ds_dr, -1.0 / (r * r));
  }
}

TEST(SwitchFn, ZeroBeyondCutoff) {
  auto sw = switch_fn(4.0, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(sw.s, 0.0);
  EXPECT_DOUBLE_EQ(sw.ds_dr, 0.0);
  EXPECT_DOUBLE_EQ(switch_fn(17.0, 2.0, 4.0).s, 0.0);
}

TEST(SwitchFn, ContinuousAtBothEnds) {
  const double rs = 2.0, rc = 4.0, eps = 1e-9;
  EXPECT_NEAR(switch_fn(rs - eps, rs, rc).s, switch_fn(rs + eps, rs, rc).s, 1e-7);
  EXPECT_NEAR(switch_fn(rc - eps, rs, rc).s, 0.0, 1e-7);
  // Derivative continuity at rs (C2 gate).
  EXPECT_NEAR(switch_fn(rs - eps, rs, rc).ds_dr, switch_fn(rs + eps, rs, rc).ds_dr, 1e-6);
  EXPECT_NEAR(switch_fn(rc - eps, rs, rc).ds_dr, 0.0, 1e-6);
}

TEST(SwitchFn, DerivativeMatchesFiniteDifference) {
  const double rs = 1.0, rc = 4.0, h = 1e-6;
  for (double r : {0.6, 1.5, 2.2, 3.0, 3.9}) {
    const double fd = (switch_fn(r + h, rs, rc).s - switch_fn(r - h, rs, rc).s) / (2 * h);
    EXPECT_NEAR(switch_fn(r, rs, rc).ds_dr, fd, 1e-7) << "r=" << r;
  }
}

TEST(SwitchFn, MonotoneDecreasingGate) {
  double prev = switch_fn(0.3, 1.0, 4.0).s;
  for (double r = 0.35; r < 4.0; r += 0.05) {
    const double s = switch_fn(r, 1.0, 4.0).s;
    EXPECT_LT(s, prev) << "r=" << r;
    prev = s;
  }
}

// ---------------------------------------------------------------------------

md::Configuration small_copper() {
  return md::make_fcc(4, 4, 4, 3.634, 63.546, /*jitter=*/0.1, 7);
}

TEST(EnvMat, BaselineAndOptimizedIdentical) {
  // The kernels emit different layouts (dense padded vs compact CSR) but the
  // SAME logical matrix: per (atom, type) block, identical counts and
  // bitwise-identical filled-slot payloads.
  auto cfg = ModelConfig::tiny();
  cfg.rcut = 4.0;
  auto sys = small_copper();
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat a, b;
  build_env_mat(cfg, sys.box, sys.atoms, nl, a, EnvMatKernel::Baseline);
  build_env_mat(cfg, sys.box, sys.atoms, nl, b, EnvMatKernel::Optimized);
  ASSERT_FALSE(a.compact());
  ASSERT_TRUE(b.compact());
  ASSERT_EQ(a.count_by_type, b.count_by_type);
  EXPECT_EQ(a.overflow, b.overflow);
  EXPECT_EQ(b.stored_slots(), b.filled_slots());
  EXPECT_EQ(a.filled_slots(), b.filled_slots());
  const std::vector<double> b_deriv = env_ref::rebuilt_deriv(b, sys.box, sys.atoms);
  for (std::size_t i = 0; i < a.n_atoms; ++i)
    for (int t = 0; t < a.ntypes; ++t) {
      const std::size_t sa = a.block_begin(i, t);
      const std::size_t sb = b.block_begin(i, t);
      for (int k = 0; k < a.count(i, t); ++k) {
        const std::size_t ka = sa + static_cast<std::size_t>(k);
        const std::size_t kb = sb + static_cast<std::size_t>(k);
        EXPECT_EQ(a.atom_of(ka), b.atom_of(kb));
        for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(a.rmat_at(ka)[c], b.rmat_at(kb)[c]);
        for (int c = 0; c < 12; ++c)
          EXPECT_DOUBLE_EQ(a.deriv_at(ka)[c], b_deriv[12 * kb + static_cast<std::size_t>(c)]);
      }
    }
}

TEST(EnvMat, SlotsSortedByDistanceWithinType) {
  auto cfg = ModelConfig::tiny();
  auto sys = small_copper();
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);
  for (std::size_t i = 0; i < env.n_atoms; ++i) {
    const int cnt = env.count(i, 0);
    const std::size_t base = env.block_begin(i, 0);
    double prev_s = 1e300;
    for (int k = 0; k < cnt; ++k) {
      // s(r) decreases with r, so sorted-by-distance means decreasing s.
      const double s = env.rmat_at(base + static_cast<std::size_t>(k))[0];
      EXPECT_LE(s, prev_s + 1e-12);
      prev_s = s;
    }
  }
}

TEST(EnvMat, PaddedSlotsAreZero) {
  // Padding exists only in the dense Baseline layout — the compact CSR
  // stores none (EnvMat.BaselineAndOptimizedIdentical covers that side).
  auto cfg = ModelConfig::tiny();
  auto sys = small_copper();
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env, EnvMatKernel::Baseline);
  for (std::size_t i = 0; i < env.n_atoms; ++i) {
    const int cnt = env.count(i, 0);
    for (int k = cnt; k < env.nm; ++k) {
      const std::size_t slot = env.block_begin(i, 0) + static_cast<std::size_t>(k);
      EXPECT_EQ(env.atom_of(slot), -1);
      for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(env.rmat_at(slot)[c], 0.0);
      for (int c = 0; c < 12; ++c) EXPECT_DOUBLE_EQ(env.deriv_at(slot)[c], 0.0);
    }
  }
}

TEST(EnvMat, RowStructureMatchesDefinition) {
  // Row = s(r) * (1, x/r, y/r, z/r): check against a hand-computed pair.
  auto cfg = ModelConfig::tiny();
  md::Configuration sys;
  sys.box = md::Box(20, 20, 20);
  sys.atoms.mass_by_type = {1.0};
  sys.atoms.add({10, 10, 10}, 0);
  sys.atoms.add({12, 11, 10.5}, 0);
  md::NeighborList nl(cfg.rcut, 0.5);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);

  const Vec3 d{2.0, 1.0, 0.5};
  const double r = norm(d);
  const auto sw = switch_fn(r, cfg.rcut_smth, cfg.rcut);
  const double* row = env.rmat_at(env.block_begin(0, 0));
  EXPECT_NEAR(row[0], sw.s, 1e-14);
  EXPECT_NEAR(row[1], sw.s * d.x / r, 1e-14);
  EXPECT_NEAR(row[2], sw.s * d.y / r, 1e-14);
  EXPECT_NEAR(row[3], sw.s * d.z / r, 1e-14);
}

TEST(EnvMat, DerivMatchesFiniteDifference) {
  auto cfg = ModelConfig::tiny();
  md::Configuration sys;
  sys.box = md::Box(20, 20, 20);
  sys.atoms.mass_by_type = {1.0};
  sys.atoms.add({10, 10, 10}, 0);
  sys.atoms.add({11.1, 10.7, 9.4}, 0);
  md::NeighborList nl(cfg.rcut, 0.5);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);
  const std::vector<double> deriv = env_ref::rebuilt_deriv(env, sys.box, sys.atoms);

  const double h = 1e-6;
  for (int l = 0; l < 3; ++l) {
    auto perturbed = [&](double sign) {
      md::Configuration p = sys;
      p.atoms.pos[1][l] += sign * h;
      EnvMat e;
      md::NeighborList nl2(cfg.rcut, 0.5);
      nl2.build(p.box, p.atoms.pos);
      build_env_mat(cfg, p.box, p.atoms, nl2, e);
      return e;
    };
    EnvMat ep = perturbed(1.0), em = perturbed(-1.0);
    for (int c = 0; c < 4; ++c) {
      const double fd = (ep.rmat_at(ep.block_begin(0, 0))[c] -
                         em.rmat_at(em.block_begin(0, 0))[c]) /
                        (2 * h);
      EXPECT_NEAR(deriv[12 * env.block_begin(0, 0) + static_cast<std::size_t>(3 * c + l)], fd,
                  1e-7)
          << "c=" << c << " l=" << l;
    }
  }
}

TEST(EnvMat, OverflowCountsDroppedNeighbors) {
  auto cfg = ModelConfig::tiny();
  cfg.sel = {4};  // far fewer slots than FCC neighbors
  auto sys = small_copper();
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);
  EXPECT_GT(env.overflow, 0u);
  for (std::size_t i = 0; i < env.n_atoms; ++i) EXPECT_LE(env.count(i, 0), 4);
}

TEST(EnvMat, TypeBlocksRespectNeighborTypes) {
  auto cfg = ModelConfig::tiny(2);
  auto sys = md::make_water(1, 1, 1, 3);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);
  for (std::size_t i = 0; i < env.n_atoms; ++i)
    for (int t = 0; t < 2; ++t) {
      const std::size_t base = env.block_begin(i, t);
      for (int k = 0; k < env.count(i, t); ++k) {
        const int j = env.atom_of(base + static_cast<std::size_t>(k));
        ASSERT_GE(j, 0);
        EXPECT_EQ(sys.atoms.type[static_cast<std::size_t>(j)], t);
      }
    }
}

TEST(EnvMat, PaddingFractionReflectsReservedSlack) {
  // Copper config reserves 500 slots but ambient FCC fills ~135 — the
  // padding fraction that drives the paper's redundancy-removal speedup.
  auto cfg = ModelConfig::copper();
  auto sys = md::make_fcc(6, 6, 6, 3.634, 63.546, 0.05, 9);
  md::NeighborList nl(cfg.rcut, 1.0);
  nl.build(sys.box, sys.atoms.pos);
  EnvMat env;
  build_env_mat(cfg, sys.box, sys.atoms, nl, env);
  EXPECT_GT(env.padding_fraction(), 0.6);
  EXPECT_LT(env.padding_fraction(), 0.8);
}

}  // namespace
}  // namespace dp::core
