// Thermostats for NVT sampling. The paper's measurement protocol is NVE
// (velocity-Verlet only), but production MLMD campaigns — the applications
// the paper motivates (phase diagrams, nucleation) — run NVT; both are
// provided.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "md/atoms.hpp"

namespace dp::md {

/// The coupling runs inside the distributed step loop, on every rank over
/// its local atoms: velocity rescalers read the whole system's temperature
/// (one allreduce per step), Langevin draws its noise per rank.
class Thermostat {
 public:
  virtual ~Thermostat() = default;

  /// Adjusts the first n velocities after the force update of a step of
  /// length dt [ps]; `t_now` is the instantaneous temperature of the whole
  /// system.
  virtual void couple(Atoms& atoms, std::size_t n, double t_now, double dt) = 0;
  /// This coupling for one rank of a world: the same parameters and state,
  /// and for stochastic couplings a noise stream of that rank's own (rank 0
  /// keeps this one's seed).
  virtual std::unique_ptr<Thermostat> for_rank(int rank) const = 0;
};

/// Langevin dynamics: velocity friction + matched Gaussian noise
/// (fluctuation-dissipation). `damping` is the relaxation time [ps].
class LangevinThermostat final : public Thermostat {
 public:
  LangevinThermostat(double temperature, double damping, std::uint64_t seed = 7);
  void couple(Atoms& atoms, std::size_t n, double t_now, double dt) override;
  std::unique_ptr<Thermostat> for_rank(int rank) const override;
  double temperature() const { return t_target_; }

 private:
  double t_target_;
  double damping_;
  std::uint64_t seed_;
  Rng rng_;
};

/// Berendsen weak-coupling rescaling: drives T toward the target with time
/// constant tau. Cheap and stable, not canonical — standard equilibration
/// tool.
class BerendsenThermostat final : public Thermostat {
 public:
  BerendsenThermostat(double temperature, double tau);
  void couple(Atoms& atoms, std::size_t n, double t_now, double dt) override;
  std::unique_ptr<Thermostat> for_rank(int rank) const override;

 private:
  double t_target_;
  double tau_;
};

/// Nose-Hoover thermostat (single chain): the standard canonical-ensemble
/// coupling for production NVT. The thermostat variable xi evolves with the
/// instantaneous kinetic energy and rescales velocities each step.
class NoseHooverThermostat final : public Thermostat {
 public:
  /// `tau` is the coupling period [ps] (sets the thermostat mass).
  NoseHooverThermostat(double temperature, double tau);
  void couple(Atoms& atoms, std::size_t n, double t_now, double dt) override;
  std::unique_ptr<Thermostat> for_rank(int rank) const override;
  double xi() const { return xi_; }

 private:
  double t_target_;
  double tau_;
  double xi_ = 0.0;  ///< thermostat friction variable [1/ps]
};

/// Berendsen barostat: isotropic box/coordinate rescaling toward a target
/// pressure. Applied by the distributed driver, which scales the box, the
/// cut planes and every position by one factor; exposed as a separate
/// interface because it changes the volume.
class BerendsenBarostat {
 public:
  /// target pressure [bar]; tau [ps]; compressibility [1/bar]
  /// (4.6e-5 1/bar is liquid water; metals are ~1e-6).
  BerendsenBarostat(double pressure_bar, double tau, double compressibility = 4.6e-5);

  /// Returns the linear box-scaling factor for this step.
  double scale_factor(double current_pressure_bar, double dt) const;

 private:
  double p_target_;
  double tau_;
  double kappa_;
};

}  // namespace dp::md
