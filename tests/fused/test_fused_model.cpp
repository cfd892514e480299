#include "fused/fused_model.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../tab/aos_reference.hpp"
#include "common/cost.hpp"
#include "dp/baseline_model.hpp"
#include "fused/mixed_model.hpp"
#include "fused/se_r_model.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "tab/compressed_model.hpp"

namespace dp::fused {
namespace {

using core::DPModel;
using core::ModelConfig;
using tab::TabulatedDP;
using tab::TabulationSpec;

struct PathFixture {
  DPModel model;
  md::Configuration sys;
  TabulationSpec spec;

  explicit PathFixture(int ntypes, std::uint64_t seed, double interval = 0.005)
      : model(ModelConfig::tiny(ntypes), seed),
        sys(ntypes == 1 ? md::make_fcc(4, 4, 4, 3.634, 63.546, 0.1, seed)
                        : md::make_water(1, 1, 1, seed)) {
    spec = {0.0, TabulatedDP::s_max(model.config(), 0.9), interval};
  }
};

TEST(FusedDP, IdenticalToCompressedPath) {
  // Fusion and redundancy skipping are exact rewrites of the compressed
  // dataflow — same table, same results up to float reassociation.
  PathFixture su(1, 41);
  TabulatedDP tab(su.model, su.spec);
  tab::CompressedDP comp(tab);
  FusedDP fused(tab);
  md::NeighborList nl(comp.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);

  md::Atoms atoms_a = su.sys.atoms;
  md::Atoms atoms_b = su.sys.atoms;
  const auto ra = comp.compute(su.sys.box, atoms_a, nl);
  const auto rb = fused.compute(su.sys.box, atoms_b, nl);
  EXPECT_NEAR(ra.energy, rb.energy, 1e-9 * atoms_a.size());
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_LT(norm(atoms_a.force[i] - atoms_b.force[i]), 1e-10) << "atom " << i;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(ra.virial(r, c), rb.virial(r, c), 1e-8);
}

TEST(FusedDP, BooksFiftySevenFlopsPerSlotChannel) {
  // The fused passes run 18 FLOPs per slot and channel in pass 1 and 39 in
  // pass 2 (simd::kFusedPassFlops counts them from the kernel bodies): a
  // fixed slot count books exactly 57 M FLOPs per slot.
  PathFixture su(1, 43);
  TabulatedDP tab(su.model, su.spec);
  FusedDP fused(tab);
  md::NeighborList nl(fused.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);
  md::Atoms atoms = su.sys.atoms;
  CostRegistry::instance().clear();
  fused.compute(su.sys.box, atoms, nl);
  const double slots = static_cast<double>(fused.slots_processed());
  const double m = static_cast<double>(su.model.config().m());
  EXPECT_GT(slots, 0.0);
  EXPECT_DOUBLE_EQ(CostRegistry::instance().get("fused.descriptor").flops, 57.0 * m * slots);
  CostRegistry::instance().clear();
}

TEST(FusedDP, RedundancySkipIsExact) {
  // Processing padded slots or skipping them must give the same physics:
  // padded environment rows are identically zero. Padding only exists in the
  // dense Baseline layout — the compact CSR default never stores it.
  PathFixture su(1, 42);
  TabulatedDP tab(su.model, su.spec);
  FusedDP with_skip(tab, {.skip_padding = true, .env_kernel = core::EnvMatKernel::Baseline});
  FusedDP without_skip(tab,
                       {.skip_padding = false, .env_kernel = core::EnvMatKernel::Baseline});
  md::NeighborList nl(with_skip.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);

  md::Atoms atoms_a = su.sys.atoms;
  md::Atoms atoms_b = su.sys.atoms;
  const double ea = with_skip.compute(su.sys.box, atoms_a, nl).energy;
  const double eb = without_skip.compute(su.sys.box, atoms_b, nl).energy;
  EXPECT_NEAR(ea, eb, 1e-10 * atoms_a.size());
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_LT(norm(atoms_a.force[i] - atoms_b.force[i]), 1e-10);
  // And the skip actually skipped something.
  EXPECT_LT(with_skip.slots_processed(), without_skip.slots_processed());
  EXPECT_EQ(without_skip.slots_processed(), without_skip.slots_total());

  // The compact layout skips implicitly: it walks exactly the slots the dense
  // skip path walks, and the physics matches the dense reference.
  FusedDP compact(tab);
  md::Atoms atoms_c = su.sys.atoms;
  const double ec = compact.compute(su.sys.box, atoms_c, nl).energy;
  EXPECT_EQ(compact.slots_processed(), with_skip.slots_processed());
  EXPECT_NEAR(ec, ea, 1e-10 * atoms_c.size());
  for (std::size_t i = 0; i < atoms_c.size(); ++i)
    EXPECT_LT(norm(atoms_a.force[i] - atoms_c.force[i]), 1e-10);
}

TEST(FusedDP, BlockedTableIdentical) {
  // Tables re-blocked by load() from the channel-major save stream drive
  // the fused kernels to the same bits as the sampled tables.
  PathFixture su(2, 43);
  TabulatedDP tab(su.model, su.spec);
  TabulatedDP reloaded(su.model, su.spec, table_ref::reload_tables(tab));
  FusedDP aos(reloaded);
  FusedDP blk(tab);
  md::NeighborList nl(aos.cutoff(), 0.5);
  nl.build(su.sys.box, su.sys.atoms.pos);
  md::Atoms atoms_a = su.sys.atoms;
  md::Atoms atoms_b = su.sys.atoms;
  EXPECT_DOUBLE_EQ(aos.compute(su.sys.box, atoms_a, nl).energy,
                   blk.compute(su.sys.box, atoms_b, nl).energy);
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_DOUBLE_EQ(norm(atoms_a.force[i] - atoms_b.force[i]), 0.0);
}

TEST(FusedDP, CloseToBaselineNetwork) {
  PathFixture su(1, 44, /*interval=*/0.002);
  TabulatedDP tab(su.model, su.spec);
  core::BaselineDP base(su.model);
  FusedDP fused(tab);
  md::NeighborList nl(base.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);
  md::Atoms atoms_a = su.sys.atoms;
  md::Atoms atoms_b = su.sys.atoms;
  const auto ra = base.compute(su.sys.box, atoms_a, nl);
  const auto rb = fused.compute(su.sys.box, atoms_b, nl);
  EXPECT_LT(std::abs(ra.energy - rb.energy) / atoms_a.size(), 1e-9);
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_LT(norm(atoms_a.force[i] - atoms_b.force[i]), 1e-6);
}

TEST(FusedDP, ForcesAreExactGradient) {
  PathFixture su(1, 45, /*interval=*/0.05);
  TabulatedDP tab(su.model, su.spec);
  FusedDP fused(tab);
  md::NeighborList nl(fused.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);
  fused.compute(su.sys.box, su.sys.atoms, nl);
  const auto forces = su.sys.atoms.force;

  const double h = 1e-6;
  for (std::size_t i : {11ul, 200ul}) {
    for (int d = 0; d < 3; ++d) {
      const Vec3 pos0 = su.sys.atoms.pos[i];
      su.sys.atoms.pos[i][d] = pos0[d] + h;
      const double ep = fused.compute(su.sys.box, su.sys.atoms, nl).energy;
      su.sys.atoms.pos[i][d] = pos0[d] - h;
      const double em = fused.compute(su.sys.box, su.sys.atoms, nl).energy;
      su.sys.atoms.pos[i] = pos0;
      EXPECT_NEAR(forces[i][d], -(ep - em) / (2 * h), 2e-6) << "atom " << i << " dim " << d;
    }
  }
}

TEST(FusedDP, PaddingSkipStatisticsMatchEnvMat) {
  PathFixture su(1, 46);
  TabulatedDP tab(su.model, su.spec);
  FusedDP fused(tab);
  md::NeighborList nl(fused.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);
  fused.compute(su.sys.box, su.sys.atoms, nl);
  const double skipped_frac = 1.0 - static_cast<double>(fused.slots_processed()) /
                                        static_cast<double>(fused.slots_total());
  EXPECT_NEAR(skipped_frac, fused.env().padding_fraction(), 1e-12);
}

/// What a path holds beside its environment matrix after one compute().
template <class Path>
std::size_t bytes_beside_csr(Path& path, const md::Configuration& sys,
                             const md::NeighborList& nl) {
  md::Atoms atoms = sys.atoms;
  path.compute(sys.box, atoms, nl);
  return path.workspace_bytes() - path.env().storage_bytes();
}

TEST(PathFootprint, FusedPathsHoldNoPerSlotBufferBesidesTheCsr) {
  // The fused-kernel paths write dE/dR~ over the env rows, and prod-force
  // recomputes displacements from the positions, so nothing they hold
  // beside the CSR is sized by the slot count. At two system sizes, a sel
  // that caps every block at 8 slots and one that keeps all ~18 neighbors
  // give the same atoms, neighbor lists and scratch but different CSRs:
  // what each path holds beside its CSR must not change.
  for (const int cells : {4, 6}) {
    const auto sys = md::make_fcc(cells, cells, cells, 3.634, 63.546, 0.1, 60);
    md::NeighborList nl(ModelConfig::tiny().rcut, 1.0);
    nl.build(sys.box, sys.atoms.pos);
    std::size_t slots[2] = {}, fused[2] = {}, mixed[2] = {}, se_r[2] = {};
    for (int k = 0; k < 2; ++k) {
      ModelConfig cfg = ModelConfig::tiny();
      cfg.sel = {k == 0 ? 8 : 24};
      DPModel model(cfg, 61);
      TabulatedDP tab(model, {0.0, TabulatedDP::s_max(cfg, 0.9), 0.005});
      FusedDP f(tab);
      fused[k] = bytes_beside_csr(f, sys, nl);
      slots[k] = f.env().stored_slots();
      MixedFusedDP mx(tab);
      mixed[k] = bytes_beside_csr(mx, sys, nl);
      cfg.descriptor = core::DescriptorKind::SeR;
      DPModel radial(cfg, 62);
      TabulatedDP radial_tab(radial, {0.0, TabulatedDP::s_max(cfg, 0.9), 0.005});
      SeRFusedDP sr(radial_tab);
      se_r[k] = bytes_beside_csr(sr, sys, nl);
    }
    const std::string where = "cells " + std::to_string(cells);
    ASSERT_GT(slots[1], 2 * slots[0]) << where;
    EXPECT_EQ(fused[0], fused[1]) << where;
    EXPECT_EQ(mixed[0], mixed[1]) << where;
    EXPECT_EQ(se_r[0], se_r[1]) << where;
  }
}

TEST(FusedDP, NveEnergyConservation) {
  DPModel model(ModelConfig::tiny(), 47);
  auto sys = md::make_fcc(4, 4, 4, 3.634, 63.546, 0.02, 48);
  TabulationSpec spec{0.0, TabulatedDP::s_max(model.config(), 0.9), 0.005};
  TabulatedDP tab(model, spec);
  FusedDP ff(tab);
  md::SimulationConfig sc;
  sc.dt = 0.0005;
  sc.steps = 80;
  sc.temperature = 100.0;
  sc.thermo_every = 10;
  sc.skin = 1.0;
  md::Simulation sim({sys.box, sys.atoms}, ff, sc);
  const auto& trace = sim.run();
  const double e0 = trace.front().total();
  for (const auto& s : trace)
    EXPECT_NEAR(s.total(), e0, 1e-5 * std::max(1.0, std::abs(e0))) << "step " << s.step;
}

}  // namespace
}  // namespace dp::fused
