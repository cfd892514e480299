// Serial MD runs with the paper's measurement protocol (Sec 4):
// velocity-Verlet, 99 MD steps = 100 force evaluations, neighbor list with a
// 2 A skin rebuilt every 50 steps, thermodynamic data sampled every 50 steps.
//
// A serial run is a one-rank world of the distributed driver
// (parallel/distributed_md.hpp) on the caller's thread, with periodic-image
// ghosts: Simulation has no step loop of its own and is implemented in
// parallel/simulation.cpp.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "md/force_field.hpp"
#include "md/integrator.hpp"
#include "md/lattice.hpp"
#include "md/thermostat.hpp"
#include "md/units.hpp"

namespace dp::par {
class ProcessGroup;
class DistributedMd;
}  // namespace dp::par

namespace dp::md {

struct SimulationConfig {
  double dt = 0.001;           ///< time step [ps] (copper 1 fs, water 0.5 fs)
  int steps = 99;              ///< MD steps
  double temperature = 330.0;  ///< initial temperature [K]
  double skin = 2.0;           ///< neighbor-list buffer [A]
  int rebuild_every = 50;      ///< neighbor rebuild period [steps]
  int thermo_every = 50;       ///< thermo sampling period [steps]
  std::uint64_t seed = 2022;
  /// Optional NVT coupling (not owned): each rank couples through its own
  /// copy (Thermostat::for_rank), so this object's state does not advance.
  Thermostat* thermostat = nullptr;
  BerendsenBarostat* barostat = nullptr;   ///< optional NPT coupling (not owned)
};

struct ThermoSample {
  int step = 0;
  double kinetic = 0.0;    ///< [eV]
  double potential = 0.0;  ///< [eV]
  double temperature = 0.0;  ///< [K]
  double pressure_bar = 0.0;
  double total() const { return kinetic + potential; }
};

class Simulation {
 public:
  /// Distributes `cfg` over a one-rank world and makes the first force
  /// evaluation.
  Simulation(Configuration cfg, ForceField& ff, SimulationConfig sim = {});
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs cfg.steps MD steps; returns the thermo trace (always includes
  /// step 0 and the final step).
  const std::vector<ThermoSample>& run();

  /// Advance exactly one step (used by tests probing conservation).
  void step();

  /// The N input atoms in input order (never the ghosts), positions wrapped
  /// into the box.
  const Configuration& configuration() const;
  const std::vector<ThermoSample>& thermo_trace() const;
  int current_step() const;
  /// Number of force evaluations so far (steps + the initial one).
  int force_evaluations() const;
  /// The driver's neighbor list (tests and benches probe its steady-state
  /// workspace footprint through this).
  const NeighborList& neighbor_list() const;

  /// Optional per-step observer (step index, sample of the current state).
  std::function<void(int, const ThermoSample&)> on_thermo;

 private:
  std::unique_ptr<par::ProcessGroup> world_;
  std::unique_ptr<par::DistributedMd> md_;
  mutable Configuration view_;  ///< configuration(), refreshed after each step
  mutable bool view_current_ = false;
};

}  // namespace dp::md
