// Parameterized decomposition sweep: distributed force evaluation must
// equal the serial one for every rank-grid shape.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "md/lj.hpp"
#include "parallel/distributed_md.hpp"

#include "final_state.hpp"

namespace dp::par {
namespace {

class GridSweep : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(GridSweep, ForcesMatchSerial) {
  const auto grid = GetParam();
  const int ranks = grid[0] * grid[1] * grid[2];
  auto sys = md::make_fcc(8, 8, 8, 3.7, 63.5, 0.07,
                          static_cast<std::uint64_t>(1000 + ranks));

  md::LennardJones serial_lj(0.4, 2.34, 4.5);
  md::NeighborList nl(serial_lj.cutoff(), 1.0);
  nl.build(sys.box, sys.atoms.pos);
  md::Atoms serial_atoms = sys.atoms;
  const auto serial_res = serial_lj.compute(sys.box, serial_atoms, nl);

  md::SimulationConfig sc;
  sc.steps = 0;
  sc.skin = 1.0;
  DistributedOptions opts;
  opts.grid = grid;
  opts.init_velocities = false;
  md::Configuration state;
  const auto result = run_distributed_md(
      ranks, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc,
      opts, keep_final_state(sc.steps, state));

  EXPECT_NEAR(result.thermo.front().potential, serial_res.energy, 1e-8);
  ASSERT_EQ(state.atoms.size(), sys.atoms.size());
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    EXPECT_LT(norm(state.atoms.force[i] - serial_atoms.force[i]), 1e-9) << "atom " << i;
}

TEST_P(GridSweep, ShortTrajectoryEnergyConserved) {
  const auto grid = GetParam();
  const int ranks = grid[0] * grid[1] * grid[2];
  auto sys = md::make_fcc(8, 8, 8, 3.7, 63.5, 0.0, 77);
  md::SimulationConfig sc;
  sc.steps = 20;
  sc.dt = 0.002;
  sc.temperature = 150.0;
  sc.skin = 1.0;
  sc.rebuild_every = 5;
  sc.thermo_every = 10;
  DistributedOptions opts;
  opts.grid = grid;
  const auto result = run_distributed_md(
      ranks, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc,
      opts);
  const double e0 = result.thermo.front().total();
  for (const auto& s : result.thermo)
    EXPECT_NEAR(s.total(), e0, 5e-3 * std::max(1.0, std::abs(e0))) << "step " << s.step;
}

INSTANTIATE_TEST_SUITE_P(Grids, GridSweep,
                         ::testing::Values(std::array<int, 3>{1, 1, 1},
                                           std::array<int, 3>{2, 1, 1},
                                           std::array<int, 3>{1, 3, 1},
                                           std::array<int, 3>{2, 2, 1},
                                           std::array<int, 3>{4, 1, 1},
                                           std::array<int, 3>{2, 2, 2}),
                         [](const ::testing::TestParamInfo<std::array<int, 3>>& info) {
                           const auto& g = info.param;
                           return std::to_string(g[0]) + "x" + std::to_string(g[1]) + "x" +
                                  std::to_string(g[2]);
                         });

}  // namespace
}  // namespace dp::par
