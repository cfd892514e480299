// Binary MD restart files: box + species + positions + velocities, enough
// to continue a trajectory exactly (forces are recomputed on load).
#pragma once

#include <string>

#include "md/lattice.hpp"

namespace dp::md {

/// Writes a restart file (includes the step counter for bookkeeping)
/// through `<path>.tmp`, fsynced and renamed over `path`. Throws on any
/// failure, leaving an existing `path` unchanged.
void save_checkpoint(const std::string& path, const Configuration& cfg, int step = 0);

struct Checkpoint {
  Configuration config;
  int step = 0;
};

Checkpoint load_checkpoint(const std::string& path);

}  // namespace dp::md
