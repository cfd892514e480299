// Domain-decomposed MD driver — the one MD step loop in the tree. A serial
// run is a one-rank world of it (md::Simulation): the paper's Sec 3.5.4
// scheme, every rank owning a sub-region that its threads share, with one
// rank.
//
// The decomposition is count-equalized slabs (Decomp's positions
// constructor), placed once from the initial configuration: the paper's
// sub-regions "carefully divided to avoid load-balance problems" (Fig 6c).
// Ghosts are explicit periodic images on every rank count, a one-rank world
// included.
//
// Per step (the LAMMPS pair-style cycle the paper runs on Summit/Fugaku):
//   half-kick + drift -> rebuild check (every rebuild_every steps, or early
//   when the OR-allreduced skin/2 displacement criterion fires: drop ghosts,
//   migrate, re-exchange ghosts, rebuild the local neighbor list; otherwise
//   refresh ghost positions along the recorded plan) -> one force
//   evaluation over every local center -> ghost-force reduction -> half-kick
//   -> thermostat (velocity rescalers read one allreduced temperature,
//   Langevin draws per rank) -> barostat (scales box, cut planes and
//   positions by one factor, then rebuilds and re-evaluates); thermodynamics
//   via allreduce at the thermo cadence.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "md/force_field.hpp"
#include "md/simulation.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "parallel/decomp.hpp"
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
  /// Force evaluations: steps + 1, plus one per barostat rescale.
  std::uint64_t force_evals = 0;
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

class DistributedMd;

/// Sees every thermo sample (step 0 included) on every rank, right after
/// it was taken; it may call the rank's collectives (gather()), since every
/// rank calls it at the same point. It must not throw on some ranks only:
/// the others would wait for them in the next collective.
using SampleHook = std::function<void(DistributedMd& md, const md::ThermoSample& s)>;

/// One rank's share of an MD run. Every rank of the world constructs one
/// with the same configuration and options and then calls the same
/// collective members in the same order.
class DistributedMd {
 public:
  /// Takes this rank's share of `global` and makes the first force
  /// evaluation (collective). Each rank derives the identical initial
  /// state: validation and velocity init are deterministic in sim.seed, so
  /// one-rank-per-process worlds need no broadcast of the configuration.
  /// `ff` is this rank's force field; it must outlive the object.
  DistributedMd(Communicator& comm, const md::Configuration& global, md::ForceField& ff,
                const md::SimulationConfig& sim, const DistributedOptions& opts = {});
  ~DistributedMd();
  DistributedMd(const DistributedMd&) = delete;
  DistributedMd& operator=(const DistributedMd&) = delete;

  /// One MD step (collective).
  void step();
  /// Samples the current state, then runs sim.steps steps, sampling at the
  /// thermo cadence and after the last one (collective). Returns the
  /// samples of this call.
  const std::vector<md::ThermoSample>& run(const SampleHook& on_thermo = {});
  /// The state of every atom in input order on rank 0: box, types,
  /// positions wrapped into the box, velocities and forces (collective;
  /// empty on other ranks).
  md::Configuration gather();
  /// End-of-run reductions: the aggregate fields are meaningful on rank 0
  /// only, `thermo` on every rank (collective).
  DistributedRunResult finish();

  /// Returns once every rank has called it (collective).
  void barrier() { comm_.barrier(); }
  int rank() const { return comm_.rank(); }
  int current_step() const { return step_; }
  std::uint64_t force_evaluations() const { return force_evals_; }
  const md::Box& box() const { return decomp_.box(); }
  const md::NeighborList& neighbor_list() const { return nlist_; }
  const std::vector<md::ThermoSample>& thermo() const { return thermo_; }

 private:
  /// Re-derives ownership, ghosts and the neighbor list (collective).
  void rebuild();
  void evaluate_forces();
  /// Thermostat, then barostat, after the second half-kick.
  void couple();
  /// Allreduced energies, temperature and pressure of the current state.
  md::ThermoSample measure();
  void sample(const SampleHook& on_thermo);
  /// Feeds the health monitor globally reduced signals (after a sample).
  void probe_health();

  Communicator& comm_;
  md::ForceField& ff_;
  const md::SimulationConfig sim_;
  const DistributedOptions opts_;
  WallTimer wall_;
  std::size_t n_global_ = 0;
  std::vector<int> types_;  ///< type of every atom by global id
  Decomp decomp_;
  HaloExchange halo_;
  md::NeighborList nlist_;
  md::Atoms atoms_;
  std::vector<std::int64_t> ids_;  ///< global id of each owned atom
  std::size_t n_local_ = 0;
  md::ForceResult force_;
  std::unique_ptr<md::Thermostat> thermostat_;  ///< this rank's copy
  std::optional<obs::FlightRecorder> flight_;
  std::optional<obs::HealthMonitor> health_;
  std::vector<md::ThermoSample> thermo_;
  int step_ = 0;
  int since_rebuild_ = 0;
  std::uint64_t rebuilds_ = 0, early_rebuilds_ = 0, force_evals_ = 0;
  std::size_t max_local_ = 0, max_ghost_ = 0;
  int worst_seen_ = 0;
  // Per-step phase accounting feeding the flight record (comm covers
  // migration, ghost exchange and force reduction).
  double phase_comm_ = 0.0, phase_neighbor_ = 0.0, phase_force_ = 0.0;
  // Force-evaluation seconds since the last sample — the imbalance probe
  // compares this window's max across ranks against its mean. Step time
  // would not do: it includes the blocking halo wait, which evens it out
  // across ranks however skewed the work is.
  double window_force_seconds_ = 0.0;
};

/// SPMD entry point: runs this rank's share of the global configuration over
/// an already-connected communicator — in-process rank threads
/// (run_distributed_md below) and one-rank-per-process worlds
/// (ProcessGroup::comm() over the shm/tcp transports) take the identical
/// path. Every rank must pass the same configuration and options.
/// `result.thermo` is filled on every rank; the aggregate fields are
/// meaningful on rank 0 only.
DistributedRunResult run_distributed_md_rank(Communicator& comm,
                                             const md::Configuration& global,
                                             const ForceFieldFactory& factory,
                                             const md::SimulationConfig& sim,
                                             const DistributedOptions& opts = {},
                                             const SampleHook& on_thermo = {});

/// Runs `sim.steps` MD steps of the global configuration on `nranks`
/// in-process rank threads.
DistributedRunResult run_distributed_md(int nranks, const md::Configuration& global,
                                        const ForceFieldFactory& factory,
                                        const md::SimulationConfig& sim,
                                        const DistributedOptions& opts = {},
                                        const SampleHook& on_thermo = {});

}  // namespace dp::par
