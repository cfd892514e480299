// Test helper: the state a distributed run ends in, gathered by atom id.
#pragma once

#include <utility>

#include "parallel/distributed_md.hpp"

namespace dp::par {

/// A SampleHook that stores rank 0's gather of the state sampled at
/// `last_step` in `out` (positions wrapped, atoms in input order). Every
/// rank must run it: gather() is collective.
inline SampleHook keep_final_state(int last_step, md::Configuration& out) {
  return [last_step, &out](DistributedMd& md, const md::ThermoSample& s) {
    if (s.step != last_step) return;
    md::Configuration state = md.gather();
    if (md.rank() == 0) out = std::move(state);
  };
}

}  // namespace dp::par
