// 3D Cartesian domain decomposition: each rank owns one orthorhombic
// sub-region of the global box (paper Fig 1 (a)).
//
// The distributed driver decomposes with count-equalized slabs, the paper's
// sub-regions "carefully divided to avoid load-balance problems" (Fig 6c):
// along the axis with the most ranks, the cut planes split the initial atom
// positions into equal counts; the other axes keep the uniform grid. The
// planes are placed once, at construction; only a barostat moves them, by
// scaling them with the box (scale()). The plain
// (box, grid) constructor is the uniform grid, whose queries divide instead
// of searching.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "md/box.hpp"

namespace dp::par {

class Decomp {
 public:
  /// Uniform grid: grid[d] ranks along dimension d; grid[0]*grid[1]*grid[2]
  /// == nranks.
  Decomp(const md::Box& box, std::array<int, 3> grid);

  /// Count-equalized grid: the uniform grid, except along the axis with the
  /// most ranks (the first on ties), whose planes split `positions` into
  /// equal counts while keeping every slab at least 1.05 x halo_width wide.
  /// Stays uniform when that axis cannot hold its slabs at that width, or
  /// with fewer than 2 atoms. Deterministic in its inputs, so every rank
  /// derives the identical planes without communicating.
  Decomp(const md::Box& box, std::array<int, 3> grid, const std::vector<Vec3>& positions,
         double halo_width);

  /// Picks the grid with the most-cubic sub-domains for nranks ranks.
  static std::array<int, 3> choose_grid(const md::Box& box, int nranks);

  const md::Box& box() const { return box_; }
  int nranks() const { return grid_[0] * grid_[1] * grid_[2]; }
  const std::array<int, 3>& grid() const { return grid_; }

  std::array<int, 3> coords_of(int rank) const;
  int rank_of(const std::array<int, 3>& coords) const;

  /// Owning rank of a (wrapped) position.
  int owner_of(const Vec3& pos) const;

  /// Grid coordinate along `dim` owning the (wrapped, in-box) coordinate x.
  /// This is the single owner function every caller (owner_of, migrate)
  /// must share so "who owns this atom" has exactly one answer.
  int coord_of(int dim, double x) const;

  /// Sub-region bounds of a rank: [lo, hi) per dimension.
  Vec3 lo(int rank) const;
  Vec3 hi(int rank) const;

  /// Boundary plane `i` (0..grid[dim]) and slab width of coordinate c
  /// along `dim`, honoring cuts when set.
  double cut(int dim, int i) const;
  double width(int dim, int c) const { return cut(dim, c + 1) - cut(dim, c); }

  /// Installs explicit boundary planes along `dim`: grid[dim]+1 strictly
  /// increasing values spanning exactly [0, L[dim]]. Passing the uniform
  /// planes is NOT the same as never calling this — the uniform fast path
  /// divides instead of searching. Call before handing the Decomp to a
  /// HaloExchange, which reads its bounds once.
  void set_cuts(int dim, const std::vector<double>& cuts);
  bool has_cuts(int dim) const { return !cuts_[static_cast<std::size_t>(dim)].empty(); }

  /// Scales the box and every plane by mu (one isotropic barostat step):
  /// positions scaled by the same mu keep their owners.
  void scale(double mu);

  /// Face neighbor in dimension d, direction dir (+1/-1), periodic wrap.
  int neighbor(int rank, int dim, int dir) const;

  /// Smallest sub-domain extent — the halo width must not exceed it.
  double min_extent() const;

  /// Ghost-shell volume fraction: the analytic communication-to-computation
  /// proxy the paper's Sec 6.4.1 argument is built on. Uses the mean slab
  /// widths (exact for the uniform grid).
  double ghost_fraction(double halo_width) const;

 private:
  md::Box box_;
  std::array<int, 3> grid_;
  Vec3 cell_;
  /// Per-dimension boundary planes; empty = uniform.
  std::array<std::vector<double>, 3> cuts_;
};

}  // namespace dp::par
