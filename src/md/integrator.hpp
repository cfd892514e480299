// Velocity-Verlet integration and Maxwell-Boltzmann velocity initialization
// (paper Sec 4: temperature set to 330 K via random initial velocities).
#pragma once

#include <cstddef>
#include <cstdint>

#include "md/atoms.hpp"

namespace dp::md {

/// Draw velocities from the Maxwell-Boltzmann distribution at temperature T,
/// remove the center-of-mass drift, and rescale to hit T exactly.
void init_velocities(Atoms& atoms, double temperature, std::uint64_t seed = 2022);

/// First Verlet half-kick + drift of the first n atoms:
/// v += (dt/2) a;  r += dt v. Positions are not wrapped: the distributed
/// driver wraps them when it migrates atoms at a rebuild.
void verlet_first_half(Atoms& atoms, double dt, std::size_t n);

/// Second half-kick of the first n atoms with the fresh forces: v += (dt/2) a.
void verlet_second_half(Atoms& atoms, double dt, std::size_t n);

/// Kinetic energy [eV].
double kinetic_energy(const Atoms& atoms);
/// Kinetic energy of the first n atoms [eV].
double kinetic_energy(const Atoms& atoms, std::size_t n);

/// Instantaneous temperature [K] of n atoms (3n - 3 COM-free dof).
double temperature(const Atoms& atoms);
/// The same for n atoms with kinetic energy `kinetic` [eV].
double temperature(double kinetic, std::size_t n);

}  // namespace dp::md
