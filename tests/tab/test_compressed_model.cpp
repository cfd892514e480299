#include "tab/compressed_model.hpp"

#include <gtest/gtest.h>

#include "aos_reference.hpp"
#include "dp/baseline_model.hpp"
#include "md/lattice.hpp"

namespace dp::tab {
namespace {

using core::DPModel;
using core::ModelConfig;

struct PathFixture {
  DPModel model;
  md::Configuration sys;
  TabulationSpec spec;

  PathFixture(int ntypes, std::uint64_t seed, double interval = 0.005)
      : model(ModelConfig::tiny(ntypes), seed),
        sys(ntypes == 1 ? md::make_fcc(4, 4, 4, 3.634, 63.546, 0.1, seed)
                        : md::make_water(1, 1, 1, seed)) {
    // rcut_smth = 1.0 in the tiny config; closest approach in these systems
    // is > 0.9 A, so s stays below s(0.9).
    spec = {0.0, TabulatedDP::s_max(model.config(), 0.9), interval};
  }
};

TEST(CompressedDP, MatchesBaselineClosely) {
  PathFixture su(1, 31);
  TabulatedDP tab(su.model, su.spec);
  core::BaselineDP base(su.model);
  CompressedDP comp(tab);
  md::NeighborList nl(base.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);

  md::Atoms atoms_a = su.sys.atoms;
  md::Atoms atoms_b = su.sys.atoms;
  const auto ra = base.compute(su.sys.box, atoms_a, nl);
  const auto rb = comp.compute(su.sys.box, atoms_b, nl);

  const double per_atom = std::abs(ra.energy - rb.energy) / atoms_a.size();
  EXPECT_LT(per_atom, 1e-8);
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_LT(norm(atoms_a.force[i] - atoms_b.force[i]), 1e-6) << "atom " << i;
}

TEST(CompressedDP, TwoTypesMatchBaseline) {
  PathFixture su(2, 32);
  TabulatedDP tab(su.model, su.spec);
  core::BaselineDP base(su.model);
  CompressedDP comp(tab);
  md::NeighborList nl(base.cutoff(), 0.5);
  nl.build(su.sys.box, su.sys.atoms.pos);

  md::Atoms atoms_a = su.sys.atoms;
  md::Atoms atoms_b = su.sys.atoms;
  const auto ra = base.compute(su.sys.box, atoms_a, nl);
  const auto rb = comp.compute(su.sys.box, atoms_b, nl);
  EXPECT_LT(std::abs(ra.energy - rb.energy) / atoms_a.size(), 1e-8);
}

TEST(CompressedDP, ForcesAreExactGradientOfCompressedEnergy) {
  // Unlike the baseline comparison (approximation error), the compressed
  // model is self-consistent: its forces differentiate its own energy.
  PathFixture su(1, 33, /*interval=*/0.05);  // coarse table: still exact gradient
  TabulatedDP tab(su.model, su.spec);
  CompressedDP comp(tab);
  md::NeighborList nl(comp.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);
  comp.compute(su.sys.box, su.sys.atoms, nl);
  const auto forces = su.sys.atoms.force;

  const double h = 1e-6;
  for (std::size_t i : {3ul, 77ul}) {
    for (int d = 0; d < 3; ++d) {
      const Vec3 pos0 = su.sys.atoms.pos[i];
      su.sys.atoms.pos[i][d] = pos0[d] + h;
      const double ep = comp.compute(su.sys.box, su.sys.atoms, nl).energy;
      su.sys.atoms.pos[i][d] = pos0[d] - h;
      const double em = comp.compute(su.sys.box, su.sys.atoms, nl).energy;
      su.sys.atoms.pos[i] = pos0;
      EXPECT_NEAR(forces[i][d], -(ep - em) / (2 * h), 2e-6) << "atom " << i << " dim " << d;
    }
  }
}

TEST(CompressedDP, BlockedLayoutGivesIdenticalResults) {
  // Tables re-blocked by load() from the channel-major save stream give the
  // same bits as the sampled tables.
  PathFixture su(1, 34);
  TabulatedDP tab(su.model, su.spec);
  TabulatedDP reloaded(su.model, su.spec, table_ref::reload_tables(tab));
  CompressedDP aos(reloaded);
  CompressedDP blk(tab);
  md::NeighborList nl(aos.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);
  md::Atoms atoms_a = su.sys.atoms;
  md::Atoms atoms_b = su.sys.atoms;
  const double ea = aos.compute(su.sys.box, atoms_a, nl).energy;
  const double eb = blk.compute(su.sys.box, atoms_b, nl).energy;
  EXPECT_DOUBLE_EQ(ea, eb);
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_DOUBLE_EQ(norm(atoms_a.force[i] - atoms_b.force[i]), 0.0);
}

TEST(CompressedDP, VirialMatchesBaseline) {
  PathFixture su(1, 35);
  TabulatedDP tab(su.model, su.spec);
  core::BaselineDP base(su.model);
  CompressedDP comp(tab);
  md::NeighborList nl(base.cutoff(), 1.0);
  nl.build(su.sys.box, su.sys.atoms.pos);
  md::Atoms atoms_a = su.sys.atoms;
  md::Atoms atoms_b = su.sys.atoms;
  const auto ra = base.compute(su.sys.box, atoms_a, nl);
  const auto rb = comp.compute(su.sys.box, atoms_b, nl);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(ra.virial(r, c), rb.virial(r, c), 1e-5);
}

TEST(TabulatedDP, SMaxIsMonotoneInRMin) {
  const auto cfg = ModelConfig::tiny();
  EXPECT_GT(TabulatedDP::s_max(cfg, 0.5), TabulatedDP::s_max(cfg, 1.0));
  EXPECT_GT(TabulatedDP::s_max(cfg, 1.0), TabulatedDP::s_max(cfg, 2.0));
}

TEST(TabulatedDP, TotalBytesSumsPerTypeTables) {
  DPModel model(ModelConfig::tiny(2), 36);
  TabulationSpec spec{0.0, 1.0, 0.01};
  TabulatedDP tab(model, spec);
  EXPECT_EQ(tab.total_bytes(), tab.table(0).bytes() + tab.table(1).bytes());
  EXPECT_GT(tab.total_bytes(), 0u);
}

}  // namespace
}  // namespace dp::tab
