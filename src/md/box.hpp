// Orthorhombic periodic simulation box.
#pragma once

#include <cmath>

#include "common/error.hpp"
#include "common/types.hpp"

namespace dp::md {

class Box {
 public:
  Box() = default;
  explicit Box(Vec3 lengths) : l_(lengths) {
    DP_CHECK_MSG(l_.x > 0 && l_.y > 0 && l_.z > 0, "box lengths must be positive");
    inv_ = {1.0 / l_.x, 1.0 / l_.y, 1.0 / l_.z};
  }
  Box(double lx, double ly, double lz) : Box(Vec3{lx, ly, lz}) {}

  const Vec3& lengths() const { return l_; }
  double volume() const { return l_.x * l_.y * l_.z; }

  /// Map a position into [0, L) in every dimension.
  Vec3 wrap(Vec3 r) const {
    for (int d = 0; d < 3; ++d) {
      double& c = r[d];
      c -= std::floor(c * inv_[d]) * l_[d];
      if (c >= l_[d]) c = 0.0;  // guard the r == L rounding edge
    }
    return r;
  }

  /// Minimum-image convention for a displacement vector.
  Vec3 min_image(Vec3 d) const {
    for (int k = 0; k < 3; ++k) {
      double& c = d[k];
      c -= round_half_away(c * inv_[k]) * l_[k];
    }
    return d;
  }

  /// std::round (halfway cases away from zero), bitwise, for every double,
  /// without the libm call GCC emits for it: trunc inlines to one rounding
  /// instruction, x - trunc(x) is exact (Sterbenz), and t +- 1 is exact
  /// wherever a fraction exists (|x| < 2^52). Signed zeros, infinities and
  /// NaNs pass through trunc unchanged (inf - inf is NaN, and NaN >= 0.5 is
  /// false). The step is added, not branched on, so displacements that
  /// cross the box cost no mispredicted branch: t + (+-0) is t, and a zero
  /// t keeps its sign because the zero step carries x's.
  static double round_half_away(double x) {
    const double t = std::trunc(x);
    return t + std::copysign(std::fabs(x - t) >= 0.5 ? 1.0 : 0.0, x);
  }

  /// True if a cutoff sphere fits: rc < L/2 in every dimension (required for
  /// the minimum-image convention to see each neighbor at most once).
  bool accommodates_cutoff(double rc) const {
    return 2.0 * rc < l_.x && 2.0 * rc < l_.y && 2.0 * rc < l_.z;
  }

 private:
  Vec3 l_{1, 1, 1};
  Vec3 inv_{1, 1, 1};
};

}  // namespace dp::md
