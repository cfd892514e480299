// The smooth radial gate of the DP descriptor (paper Eq. 1):
//   s(r) = w(r) / r, with w decaying C2-smoothly from 1 to 0 on
//   [rcut_smth, rcut]:
//     w(r) = 1                          r <  rcut_smth
//     w(r) = 1 - 10 x^3 + 15 x^4 - 6 x^5,  x = (r - rs)/(rc - rs)
//     w(r) = 0                          r >= rcut
// The one body is the environment-matrix slot's (simd::EnvRowsFn); this is
// its width-1 instance.
#pragma once

#include "common/simd.hpp"

namespace dp::core {

struct SwitchValue {
  double s = 0.0;       ///< s(r)
  double ds_dr = 0.0;   ///< ds/dr
};

inline SwitchValue switch_fn(double r, double rcut_smth, double rcut) {
  SwitchValue out;
  simd::env_switch(r, rcut_smth, rcut, &out.s, &out.ds_dr);
  return out;
}

}  // namespace dp::core
