// Parameterized sweep over the fused kernel's option matrix: every
// combination of {skip_padding, env_kernel} must give the same physics —
// the options are pure performance rewrites — whether the tables were
// sampled in memory ("blk") or read back from the channel-major (AoS) save
// stream, which load() re-blocks ("aos", the `dpmd run --compressed` path).
// "walk2" names the one evaluation scheme: each pass walks the table.
#include <gtest/gtest.h>

#include <tuple>

#include "../tab/aos_reference.hpp"
#include "fused/fused_model.hpp"
#include "md/lattice.hpp"

namespace dp::fused {
namespace {

using tab::TabulatedDP;
using tab::TabulationSpec;

using OptParam = std::tuple<bool /*skip*/, bool /*built*/, int /*env*/>;

class FusedOptionsSweep : public ::testing::TestWithParam<OptParam> {};

TEST_P(FusedOptionsSweep, MatchesReferenceConfiguration) {
  const auto [skip, built, env] = GetParam();
  core::DPModel model(core::ModelConfig::tiny(2), 91);
  TabulationSpec spec{0.0, TabulatedDP::s_max(model.config(), 0.9), 0.01};
  TabulatedDP tab(model, spec);
  TabulatedDP reloaded(model, spec, table_ref::reload_tables(tab));
  auto sys = md::make_water(1, 1, 1, 92);

  FusedDP reference(tab, {});  // defaults: skip, optimized env
  FusedOptions opts;
  opts.skip_padding = skip;
  opts.env_kernel = env == 0 ? core::EnvMatKernel::Baseline : core::EnvMatKernel::Optimized;
  FusedDP variant(built ? tab : reloaded, opts);

  md::NeighborList nl(reference.cutoff(), 0.5);
  nl.build(sys.box, sys.atoms.pos);
  md::Atoms atoms_a = sys.atoms;
  md::Atoms atoms_b = sys.atoms;
  const auto ra = reference.compute(sys.box, atoms_a, nl);
  const auto rb = variant.compute(sys.box, atoms_b, nl);
  // skip on/off changes summation order over padded zeros only; everything
  // else is an exact rewrite.
  EXPECT_NEAR(ra.energy, rb.energy, 1e-10 * atoms_a.size());
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_LT(norm(atoms_a.force[i] - atoms_b.force[i]), 1e-10) << "atom " << i;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(ra.virial(r, c), rb.virial(r, c), 1e-9);
}

std::string opt_name(const ::testing::TestParamInfo<OptParam>& info) {
  const auto [skip, built, env] = info.param;
  std::string n;
  n += skip ? "skip_" : "noskip_";
  n += built ? "blk_" : "aos_";
  n += "walk2_";
  n += env == 0 ? "envbase" : "envopt";
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllOptions, FusedOptionsSweep,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Values(0, 1)),
                         opt_name);

}  // namespace
}  // namespace dp::fused
