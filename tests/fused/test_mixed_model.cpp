#include "fused/mixed_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fused/fused_model.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "tab/table.hpp"

namespace dp::fused {
namespace {

using core::DPModel;
using core::ModelConfig;
using tab::TabulatedDP;
using tab::TabulationSpec;

struct MixedFixture {
  DPModel model;
  md::Configuration sys;
  TabulationSpec spec;

  explicit MixedFixture(int ntypes, std::uint64_t seed)
      : model(ModelConfig::tiny(ntypes), seed),
        sys(ntypes == 1 ? md::make_fcc(4, 4, 4, 3.634, 63.546, 0.1, seed)
                        : md::make_water(1, 1, 1, seed)) {
    spec = {0.0, TabulatedDP::s_max(model.config(), 0.9), 0.005};
  }
};

TEST(TabulatedEmbeddingSP, MatchesDoubleTableToFloatPrecision) {
  nn::EmbeddingNet net({8, 16, 32});
  Rng rng(1);
  net.init_random(rng);
  tab::TabulatedEmbedding table(net, {0.0, 2.0, 0.01});
  tab::TabulatedEmbeddingSP table_sp(table);
  EXPECT_EQ(table_sp.output_dim(), 32u);
  EXPECT_EQ(table_sp.bytes() * 2, table.bytes());  // half the memory

  std::vector<double> g(32), dg(32);
  std::vector<float> gf(32), dgf(32);
  for (double s : {0.05, 0.5, 1.3, 1.95}) {
    table.eval_with_deriv(s, g.data(), dg.data());
    table_sp.eval_with_deriv(static_cast<float>(s), gf.data(), dgf.data());
    for (std::size_t ch = 0; ch < 32; ++ch) {
      EXPECT_NEAR(gf[ch], g[ch], 2e-6) << "s=" << s;
      EXPECT_NEAR(dgf[ch], dg[ch], 2e-5) << "s=" << s;
    }
  }
}

TEST(MixedFusedDP, EnergyClosesToDoublePath) {
  MixedFixture f(1, 61);
  TabulatedDP tab(f.model, f.spec);
  FusedDP fused(tab);
  MixedFusedDP mixed(tab);
  md::NeighborList nl(fused.cutoff(), 1.0);
  nl.build(f.sys.box, f.sys.atoms.pos);

  md::Atoms atoms_a = f.sys.atoms;
  md::Atoms atoms_b = f.sys.atoms;
  const double ed = fused.compute(f.sys.box, atoms_a, nl).energy;
  const double em = mixed.compute(f.sys.box, atoms_b, nl).energy;
  // Per-atom energy error at the single-precision level.
  EXPECT_LT(std::abs(ed - em) / static_cast<double>(atoms_a.size()), 1e-5);
}

TEST(MixedFusedDP, ForcesCloseToDoublePath) {
  MixedFixture f(2, 62);
  TabulatedDP tab(f.model, f.spec);
  FusedDP fused(tab);
  MixedFusedDP mixed(tab);
  md::NeighborList nl(fused.cutoff(), 0.5);
  nl.build(f.sys.box, f.sys.atoms.pos);

  md::Atoms atoms_a = f.sys.atoms;
  md::Atoms atoms_b = f.sys.atoms;
  fused.compute(f.sys.box, atoms_a, nl);
  mixed.compute(f.sys.box, atoms_b, nl);
  double rmse = 0;
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    rmse += norm2(atoms_a.force[i] - atoms_b.force[i]);
  rmse = std::sqrt(rmse / (3.0 * static_cast<double>(atoms_a.size())));
  EXPECT_LT(rmse, 1e-4);  // eV/A, single-precision force noise
  EXPECT_GT(rmse, 0.0);   // and it is genuinely a different precision
}

TEST(MixedFusedDP, VirialCloseToDoublePath) {
  MixedFixture f(1, 63);
  TabulatedDP tab(f.model, f.spec);
  FusedDP fused(tab);
  MixedFusedDP mixed(tab);
  md::NeighborList nl(fused.cutoff(), 1.0);
  nl.build(f.sys.box, f.sys.atoms.pos);
  md::Atoms atoms_a = f.sys.atoms;
  md::Atoms atoms_b = f.sys.atoms;
  const auto rd = fused.compute(f.sys.box, atoms_a, nl);
  const auto rm = mixed.compute(f.sys.box, atoms_b, nl);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(rd.virial(r, c), rm.virial(r, c),
                  1e-3 * std::max(1.0, std::abs(rd.virial(r, c))));
}

TEST(MixedFusedDP, NewtonThirdLawStillExact) {
  // Force accumulation is double: the total must still vanish to double
  // precision even though contributions are float.
  MixedFixture f(1, 64);
  TabulatedDP tab(f.model, f.spec);
  MixedFusedDP mixed(tab);
  md::NeighborList nl(mixed.cutoff(), 1.0);
  nl.build(f.sys.box, f.sys.atoms.pos);
  mixed.compute(f.sys.box, f.sys.atoms, nl);
  Vec3 total{};
  for (const auto& fo : f.sys.atoms.force) total += fo;
  // Pair gradients are applied antisymmetrically, so cancellation is exact
  // regardless of their precision.
  EXPECT_NEAR(norm(total), 0.0, 1e-9);
}

TEST(MixedFusedDP, ShortNveRunIsStable) {
  // The paper flags mixed-precision accuracy as future work; the fused
  // mixed path must at least integrate stably over a short trajectory.
  MixedFixture f(1, 65);
  TabulatedDP tab(f.model, f.spec);
  MixedFusedDP mixed(tab);
  md::SimulationConfig sc;
  sc.dt = 0.0005;
  sc.steps = 40;
  sc.temperature = 100.0;
  sc.skin = 1.0;
  sc.thermo_every = 10;
  md::Simulation sim(f.sys, mixed, sc);
  const auto& trace = sim.run();
  const double e0 = trace.front().total();
  for (const auto& s : trace)
    EXPECT_NEAR(s.total(), e0, 1e-3 * std::max(1.0, std::abs(e0))) << "step " << s.step;
}

TEST(MixedFusedDP, HalfPrecisionHalvesTablesAgain) {
  MixedFixture f(1, 66);
  TabulatedDP tab(f.model, f.spec);
  MixedFusedDP single(tab, MixedPrecision::Single);
  MixedFusedDP half(tab, MixedPrecision::Half);
  EXPECT_EQ(half.table_bytes() * 2, single.table_bytes());
}

TEST(MixedFusedDP, HalfPrecisionShowsTheAccuracyProblem) {
  // The paper's Sec 7 remark made quantitative: fp16 coefficients degrade
  // forces visibly relative to the single-precision path.
  MixedFixture f(1, 67);
  TabulatedDP tab(f.model, f.spec);
  FusedDP reference(tab);
  MixedFusedDP single(tab, MixedPrecision::Single);
  MixedFusedDP half(tab, MixedPrecision::Half);
  md::NeighborList nl(reference.cutoff(), 1.0);
  nl.build(f.sys.box, f.sys.atoms.pos);

  auto force_rmse = [&](md::ForceField& ff) {
    md::Atoms ref_atoms = f.sys.atoms;
    md::Atoms test_atoms = f.sys.atoms;
    reference.compute(f.sys.box, ref_atoms, nl);
    ff.compute(f.sys.box, test_atoms, nl);
    double s = 0;
    for (std::size_t i = 0; i < ref_atoms.size(); ++i)
      s += norm2(ref_atoms.force[i] - test_atoms.force[i]);
    return std::sqrt(s / (3.0 * static_cast<double>(ref_atoms.size())));
  };
  const double err_single = force_rmse(single);
  const double err_half = force_rmse(half);
  EXPECT_GT(err_half, 50.0 * err_single);  // clearly degraded...
  EXPECT_LT(err_half, 1.0);                // ...but not garbage
}

TEST(MixedFusedDP, HalfPrecisionEnergyStillReasonable) {
  MixedFixture f(2, 68);
  TabulatedDP tab(f.model, f.spec);
  FusedDP reference(tab);
  MixedFusedDP half(tab, MixedPrecision::Half);
  md::NeighborList nl(reference.cutoff(), 0.5);
  nl.build(f.sys.box, f.sys.atoms.pos);
  md::Atoms a = f.sys.atoms, b = f.sys.atoms;
  const double ed = reference.compute(f.sys.box, a, nl).energy;
  const double eh = half.compute(f.sys.box, b, nl).energy;
  EXPECT_LT(std::abs(ed - eh) / static_cast<double>(a.size()), 5e-3);
}

}  // namespace
}  // namespace dp::fused
