#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "md/dump.hpp"
#include "md/lj.hpp"
#include "md/thermostat.hpp"

namespace dp::md {
namespace {

/// One coupling step of a system whose atoms are all local.
void apply(Thermostat& thermostat, Atoms& atoms, double dt) {
  thermostat.couple(atoms, atoms.size(), temperature(atoms), dt);
}

TEST(Langevin, RelaxesToTargetTemperature) {
  auto cfg = make_fcc(4, 4, 4, 3.7);
  init_velocities(cfg.atoms, 100.0, 1);  // start cold
  LangevinThermostat thermostat(400.0, /*damping=*/0.05, 2);
  // Pure thermostat relaxation (no forces): should reach ~400 K.
  for (int i = 0; i < 2000; ++i) apply(thermostat, cfg.atoms, 0.001);
  EXPECT_NEAR(temperature(cfg.atoms), 400.0, 40.0);
}

TEST(Langevin, ZeroTemperatureDampsMotion) {
  auto cfg = make_fcc(2, 2, 2, 3.7);
  init_velocities(cfg.atoms, 300.0, 3);
  LangevinThermostat thermostat(0.0, 0.01, 4);
  for (int i = 0; i < 500; ++i) apply(thermostat, cfg.atoms, 0.001);
  EXPECT_LT(temperature(cfg.atoms), 1.0);
}

TEST(Langevin, RejectsBadParameters) {
  EXPECT_THROW(LangevinThermostat(-1.0, 0.1), Error);
  EXPECT_THROW(LangevinThermostat(300.0, 0.0), Error);
}

TEST(Berendsen, RescalesTowardTarget) {
  auto cfg = make_fcc(4, 4, 4, 3.7);
  init_velocities(cfg.atoms, 600.0, 5);
  BerendsenThermostat thermostat(300.0, 0.01);
  for (int i = 0; i < 200; ++i) apply(thermostat, cfg.atoms, 0.001);
  EXPECT_NEAR(temperature(cfg.atoms), 300.0, 5.0);
}

TEST(Berendsen, NoopAtTarget) {
  auto cfg = make_fcc(3, 3, 3, 3.7);
  init_velocities(cfg.atoms, 300.0, 6);
  const auto before = cfg.atoms.vel;
  BerendsenThermostat thermostat(300.0, 0.1);
  apply(thermostat, cfg.atoms, 0.001);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_NEAR(norm(cfg.atoms.vel[i] - before[i]), 0.0, 1e-9);
}

TEST(Simulation, NvtHoldsTemperature) {
  auto cfg = make_fcc(3, 3, 3, 3.7);
  LennardJones lj(0.4, 2.34, 4.5);
  LangevinThermostat thermostat(330.0, 0.1, 7);
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.dt = 0.002;
  sc.steps = 300;
  sc.temperature = 330.0;
  sc.thermo_every = 50;
  sc.thermostat = &thermostat;
  Simulation sim(cfg, lj, sc);
  const auto& trace = sim.run();
  // After equilibration the temperature stays near the target (the NVE run
  // would settle near half the initial T from a perfect lattice).
  EXPECT_NEAR(trace.back().temperature, 330.0, 100.0);
}

TEST(NoseHoover, HoldsTargetTemperatureUnderMd) {
  auto cfg = make_fcc(3, 3, 3, 3.7);
  LennardJones lj(0.4, 2.34, 4.5);
  NoseHooverThermostat thermostat(330.0, 0.05);
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.dt = 0.002;
  sc.steps = 1500;
  sc.temperature = 330.0;
  sc.thermo_every = 50;
  sc.thermostat = &thermostat;
  Simulation sim(cfg, lj, sc);
  const auto& trace = sim.run();
  // Nose-Hoover oscillates; judge the time average over the second half.
  double avg = 0.0;
  int count = 0;
  for (const auto& s : trace)
    if (s.step > 750) {
      avg += s.temperature;
      ++count;
    }
  avg /= count;
  EXPECT_NEAR(avg, 330.0, 90.0);
}

TEST(NoseHoover, FrictionRespondsToTemperatureError) {
  auto cfg = make_fcc(3, 3, 3, 3.7);
  init_velocities(cfg.atoms, 600.0, 8);  // hot start vs 300 K target
  NoseHooverThermostat thermostat(300.0, 0.1);
  EXPECT_DOUBLE_EQ(thermostat.xi(), 0.0);
  apply(thermostat, cfg.atoms, 0.001);
  EXPECT_GT(thermostat.xi(), 0.0);  // hot -> positive friction (cooling)
  const double t1 = temperature(cfg.atoms);
  EXPECT_LT(t1, 600.0);
}

TEST(NoseHoover, RejectsBadParameters) {
  EXPECT_THROW(NoseHooverThermostat(0.0, 0.1), Error);
  EXPECT_THROW(NoseHooverThermostat(300.0, -1.0), Error);
}

TEST(Barostat, ScaleDirectionFollowsPressureError) {
  BerendsenBarostat barostat(1000.0, 0.1);
  // Current pressure above target: box should expand (mu > 1).
  EXPECT_GT(barostat.scale_factor(5000.0, 0.001), 1.0);
  // Below target: compress.
  EXPECT_LT(barostat.scale_factor(-3000.0, 0.001), 1.0);
  // At target: no-op.
  EXPECT_DOUBLE_EQ(barostat.scale_factor(1000.0, 0.001), 1.0);
}

TEST(Barostat, ScaleFactorIsClamped) {
  BerendsenBarostat barostat(0.0, 1e-5, 1.0);  // absurd coupling
  const double mu = barostat.scale_factor(1e9, 0.01);
  EXPECT_LE(mu, std::cbrt(1.03) + 1e-12);
}

TEST(Barostat, NptRelaxesPressureTowardTarget) {
  // A compressed LJ crystal at high pressure: NPT should let the box expand
  // and bring the virial pressure down toward the (lower) target.
  auto cfg = make_fcc(4, 4, 4, 3.55);  // ~4% compressed lattice
  LennardJones lj(0.4, 2.34, 4.5);
  BerendsenBarostat barostat(0.0, 0.05, 1e-5);
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.dt = 0.002;
  sc.steps = 150;
  sc.temperature = 100.0;
  sc.thermo_every = 150;
  sc.barostat = &barostat;
  Simulation sim(cfg, lj, sc);
  const double p0 = sim.thermo_trace().empty() ? 0.0 : 0.0;
  (void)p0;
  const auto& trace = sim.run();
  const double v0 = std::pow(3.55 * 4, 3);
  EXPECT_GT(sim.configuration().box.volume(), v0);  // box expanded
  EXPECT_LT(std::abs(trace.back().pressure_bar), std::abs(trace.front().pressure_bar));
}

// ---------------------------------------------------------------------------

TEST(Dump, XyzRoundTrip) {
  auto cfg = make_water(1, 1, 1, 8);
  const std::string path = ::testing::TempDir() + "/dp_traj_test.xyz";
  {
    XyzWriter writer(path, {"O", "H"});
    writer.write_frame(cfg.box, cfg.atoms, "frame=0");
    for (auto& p : cfg.atoms.pos) p.x += 0.1;
    writer.write_frame(cfg.box, cfg.atoms, "frame=1");
    EXPECT_EQ(writer.frames_written(), 2);
  }
  const auto frames = read_xyz(path);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].pos.size(), cfg.atoms.size());
  EXPECT_NEAR(frames[0].box.lengths().x, cfg.box.lengths().x, 1e-9);
  EXPECT_EQ(frames[0].symbols[0], "O");
  EXPECT_EQ(frames[0].symbols[1], "H");
  // Second frame is the shifted one.
  EXPECT_NEAR(frames[1].pos[0].x - frames[0].pos[0].x, 0.1, 1e-9);
  std::remove(path.c_str());
}

TEST(Dump, XyzRejectsUnknownType) {
  Atoms atoms;
  atoms.mass_by_type = {1.0, 2.0};
  atoms.add({0, 0, 0}, 1);
  const std::string path = ::testing::TempDir() + "/dp_traj_bad.xyz";
  XyzWriter writer(path, {"O"});  // no symbol for type 1
  EXPECT_THROW(writer.write_frame(Box(5, 5, 5), atoms), Error);
  std::remove(path.c_str());
}

TEST(Dump, ThermoCsvHasHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/dp_thermo_test.csv";
  {
    ThermoCsvWriter writer(path);
    ThermoSample s;
    s.step = 50;
    s.potential = -1.5;
    s.kinetic = 0.5;
    s.temperature = 300.0;
    s.pressure_bar = 1000.0;
    writer.write(s);
  }
  std::ifstream is(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  EXPECT_NE(header.find("temperature_k"), std::string::npos);
  EXPECT_NE(row.find("50,"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Dump, ReadMissingFileThrows) {
  EXPECT_THROW(read_xyz("/nonexistent/file.xyz"), Error);
}

}  // namespace
}  // namespace dp::md
