#include "md/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>

#include "md/integrator.hpp"
#include "md/lj.hpp"
#include "md/simulation.hpp"
#include "parallel/distributed_md.hpp"

#include "../parallel/final_state.hpp"

namespace dp::md {
namespace {

TEST(Checkpoint, RoundTripIsBitExact) {
  auto cfg = make_water(1, 1, 1, 3);
  init_velocities(cfg.atoms, 330.0, 4);
  const std::string path = ::testing::TempDir() + "/dp_ckpt_test.bin";
  save_checkpoint(path, cfg, 42);

  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.step, 42);
  EXPECT_DOUBLE_EQ(loaded.config.box.lengths().x, cfg.box.lengths().x);
  ASSERT_EQ(loaded.config.atoms.size(), cfg.atoms.size());
  EXPECT_EQ(loaded.config.atoms.mass_by_type, cfg.atoms.mass_by_type);
  for (std::size_t i = 0; i < cfg.atoms.size(); ++i) {
    EXPECT_EQ(loaded.config.atoms.type[i], cfg.atoms.type[i]);
    EXPECT_DOUBLE_EQ(norm(loaded.config.atoms.pos[i] - cfg.atoms.pos[i]), 0.0);
    EXPECT_DOUBLE_EQ(norm(loaded.config.atoms.vel[i] - cfg.atoms.vel[i]), 0.0);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RestartContinuesTrajectoryExactly) {
  // run A: 20 steps straight. run B: 10 steps, checkpoint, restart, 10 more.
  // Same forces, same integrator => identical final state.
  auto sys = make_fcc(3, 3, 3, 3.7, 63.5, 0.0, 5);
  LennardJones lj(0.4, 2.34, 4.5);
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.dt = 0.002;
  sc.temperature = 200.0;
  sc.rebuild_every = 1000;  // keep the list fixed so both runs see one build
  sc.thermo_every = 100;

  sc.steps = 20;
  Simulation run_a(sys, lj, sc);
  run_a.run();

  sc.steps = 10;
  Simulation run_b1(sys, lj, sc);
  run_b1.run();
  const std::string path = ::testing::TempDir() + "/dp_ckpt_restart.bin";
  save_checkpoint(path, run_b1.configuration(), run_b1.current_step());

  const Checkpoint ck = load_checkpoint(path);
  EXPECT_EQ(ck.step, 10);
  // A restart keeps the checkpointed velocities (no re-thermalization), as
  // `dpmd run --restart` does.
  par::DistributedOptions keep;
  keep.init_velocities = false;
  Configuration b;
  par::run_distributed_md(1, ck.config, [&] { return std::make_unique<LennardJones>(lj); }, sc,
                          keep, par::keep_final_state(sc.steps, b));

  const auto& a = run_a.configuration();
  ASSERT_EQ(b.atoms.size(), a.atoms.size());
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    EXPECT_LT(norm(a.box.min_image(a.atoms.pos[i] - b.atoms.pos[i])), 1e-12) << "atom " << i;
    EXPECT_LT(norm(a.atoms.vel[i] - b.atoms.vel[i]), 1e-12);
  }
  std::remove(path.c_str());
}

/// The bytes of a file, for byte-identity checks.
std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(Checkpoint, FailedSaveKeepsThePreviousFile) {
  // The save writes <path>.tmp and renames it over <path> only once the
  // bytes are down: pointing the temp file at /dev/full (every write fails
  // with ENOSPC) must throw and leave the old checkpoint byte-identical.
  const std::string path = ::testing::TempDir() + "/dp_ckpt_atomic.bin";
  const std::string tmp = path + ".tmp";
  auto cfg = make_fcc(2, 2, 2, 3.7);
  save_checkpoint(path, cfg, 1);
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "a good save left its temp file";
  const std::string before = file_bytes(path);
  ASSERT_FALSE(before.empty());

  std::filesystem::create_symlink("/dev/full", tmp);
  init_velocities(cfg.atoms, 300.0, 5);
  EXPECT_THROW(save_checkpoint(path, cfg, 2), Error);
  EXPECT_TRUE(file_bytes(path) == before) << "the failed save changed " << path;
  EXPECT_EQ(load_checkpoint(path).step, 1);

  std::filesystem::remove(tmp);
  save_checkpoint(path, cfg, 3);
  EXPECT_EQ(load_checkpoint(path).step, 3);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/dp_ckpt_bad.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a checkpoint";
  }
  EXPECT_THROW(load_checkpoint(path), Error);
  std::remove(path.c_str());
  EXPECT_THROW(load_checkpoint("/nonexistent/ckpt.bin"), Error);
}

/// Writes a checkpoint header (magic, version, step, cubic box of side
/// `box`, one type) claiming `n_atoms`, then `payload_atoms` atom records.
void write_checkpoint_claiming(const std::string& path, std::uint64_t n_atoms,
                               std::uint64_t payload_atoms, double box = 10.0) {
  std::ofstream os(path, std::ios::binary);
  auto put = [&os](const auto& v) { os.write(reinterpret_cast<const char*>(&v), sizeof v); };
  put(std::uint32_t{0x44504d43});  // "DPMC"
  put(std::uint32_t{1});
  put(std::int32_t{0});
  for (int d = 0; d < 3; ++d) put(box);
  put(std::uint64_t{1});
  put(63.5);
  put(n_atoms);
  for (std::uint64_t i = 0; i < payload_atoms; ++i) {
    put(std::int32_t{0});
    put(Vec3{1.0, 2.0, 3.0});
    put(Vec3{});
  }
}

/// The load must fail on the header bound, before any atom is read.
void expect_header_rejected(const std::string& path) {
  try {
    load_checkpoint(path);
    ADD_FAILURE() << "loaded a checkpoint whose header exceeds the file";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the file"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, RejectsAtomCountBeyondFile) {
  // A 60-byte file whose header claims 2^40 atoms must fail before the
  // reader tries to allocate them.
  const std::string path = ::testing::TempDir() + "/dp_ckpt_huge.bin";
  write_checkpoint_claiming(path, std::uint64_t{1} << 40, 0);
  EXPECT_EQ(std::ifstream(path, std::ios::binary | std::ios::ate).tellg(), 60);
  EXPECT_THROW(load_checkpoint(path), Error);
  expect_header_rejected(path);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTruncatedAtomPayload) {
  const std::string path = ::testing::TempDir() + "/dp_ckpt_short.bin";
  write_checkpoint_claiming(path, 8, 5);
  EXPECT_THROW(load_checkpoint(path), Error);
  expect_header_rejected(path);
  write_checkpoint_claiming(path, 5, 5);  // the same payload, honest about its count
  EXPECT_EQ(load_checkpoint(path).config.atoms.size(), 5u);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsNonFiniteBox) {
  const std::string path = ::testing::TempDir() + "/dp_ckpt_inf.bin";
  write_checkpoint_claiming(path, 1, 1, std::numeric_limits<double>::infinity());
  EXPECT_THROW(load_checkpoint(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dp::md
