// Domain-decomposed MD driver: the parallel equivalent of md::Simulation.
//
// The decomposition is count-equalized slabs (Decomp's positions
// constructor), placed once from the initial configuration: the paper's
// sub-regions "carefully divided to avoid load-balance problems" (Fig 6c).
//
// Per step (the LAMMPS pair-style cycle the paper runs on Summit/Fugaku):
//   half-kick + drift -> rebuild check (every rebuild_every steps, or early
//   when the OR-allreduced skin/2 displacement criterion fires: drop ghosts,
//   migrate, re-exchange ghosts, rebuild the local neighbor list; otherwise
//   refresh ghost positions along the recorded plan) -> one force
//   evaluation over every local center -> ghost-force reduction -> half-kick;
//   thermodynamics via allreduce.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "md/force_field.hpp"
#include "md/simulation.hpp"
#include "obs/health.hpp"
#include "parallel/halo.hpp"
#include "parallel/minimpi.hpp"

namespace dp::par {

/// Each rank builds its own force-field instance (one "TensorFlow graph copy"
/// per rank — the memory cost Fig 6 is about).
using ForceFieldFactory = std::function<std::unique_ptr<md::ForceField>()>;

struct DistributedRunResult {
  std::vector<md::ThermoSample> thermo;  ///< global samples (identical on all ranks)
  CommStats comm;                        ///< world-aggregate message statistics
  double wall_seconds = 0.0;
  std::size_t max_local_atoms = 0;
  std::size_t max_ghost_atoms = 0;
  /// max/mean local atoms over ranks — 1.0 is perfect balance (the paper's
  /// Fig 6c notes sub-regions are "carefully divided to avoid load-balance
  /// problems").
  double load_imbalance = 1.0;
  /// Seconds blocked in halo receives (wait + unpack), summed over ranks.
  double halo_wait_seconds = 0.0;
  /// Always 0: the step no longer overlaps force work with halo traffic.
  /// Kept for readers of the old field (bench/e2e/anatomy.cpp).
  double halo_hidden_seconds = 0.0;
  /// Neighbor-list rebuilds per rank (ranks rebuild in lockstep), and the
  /// subset forced early by the skin/2 displacement trigger.
  std::uint64_t neighbor_rebuilds = 0;
  std::uint64_t early_rebuilds = 0;
  /// Snapshot of the final state, sorted by global atom id (for parity
  /// tests against a serial run). Filled only when gather_state is set.
  std::vector<Vec3> final_pos, final_vel, final_force;
  /// End-of-run health report (rank 0's monitor; empty unless
  /// DistributedOptions::health was set). Signals are globally reduced
  /// before observation, so this is the fleet view, not one rank's.
  obs::HealthReport health;
  /// Worst encoded health state any rank saw at any sample (0/1/2) —
  /// the max-allreduce of per-rank worst states.
  int worst_health = 0;
};

struct DistributedOptions {
  std::array<int, 3> grid{0, 0, 0};  ///< ranks per dimension; {0,0,0} = auto
  bool gather_state = false;
  bool init_velocities = true;  ///< draw MB velocities before distribution
  /// Run-health watchdogs (not owned): every rank evaluates the standard
  /// set on globally reduced signals at each thermo sample, and the
  /// encoded states are max-allreduced so all ranks agree on the worst.
  const obs::HealthConfig* health = nullptr;
  /// Arm one flight recorder per rank (dumped as
  /// `<flight_dir>/flightrec.rank<k>.json` by the crash handlers) and
  /// install the SIGSEGV/SIGABRT handlers.
  bool flight_recorder = false;
  std::string flight_dir = ".";
  /// When non-empty, rank 0 rewrites + fsyncs the metrics registry as
  /// JSONL here at every sample step, so a crash later in the run leaves
  /// a log whose `md.steps` matches the flight recorders' `last_step`.
  std::string metrics_rewrite_path;
  /// Test hook, invoked on every rank after a sample step's bookkeeping
  /// (sample + flight record + metrics rewrite have all landed, on every
  /// rank: the ranks meet at a barrier before any of them calls it).
  /// Crash-injection tests raise their signal from here.
  std::function<void(int rank, int step)> on_sample;
};

/// SPMD entry point: runs this rank's share of the global configuration over
/// an already-connected communicator — in-process rank threads
/// (run_distributed_md below) and one-rank-per-process worlds
/// (ProcessGroup::comm() over the shm/tcp transports) take the identical
/// path. Every rank must pass the same configuration and options (each
/// derives the decomposition and initial velocities independently, which is
/// why init is deterministic in sim.seed). `result.thermo` is filled on
/// every rank; the aggregate fields and the gathered final state (sent to
/// rank 0 over tags >= 1<<22) are meaningful on rank 0 only.
DistributedRunResult run_distributed_md_rank(Communicator& comm,
                                             const md::Configuration& global,
                                             const ForceFieldFactory& factory,
                                             const md::SimulationConfig& sim,
                                             const DistributedOptions& opts = {});

/// Runs `sim.steps` MD steps of the global configuration on `nranks`
/// in-process ranks.
DistributedRunResult run_distributed_md(int nranks, const md::Configuration& global,
                                        const ForceFieldFactory& factory,
                                        const md::SimulationConfig& sim,
                                        const DistributedOptions& opts = {});

}  // namespace dp::par
