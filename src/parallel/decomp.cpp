#include "parallel/decomp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dp::par {

namespace {

/// Minimum slab width as a multiple of the halo width: the margin above 1.0
/// keeps HaloExchange's halo <= min_extent() invariant satisfied with room
/// for floating-point drift in the cut arithmetic.
constexpr double kMinWidthFactor = 1.05;

/// Clamps interior cut planes so every slab is at least `minw` wide, keeping
/// cuts.front()/back() fixed. Two passes: forward raises each plane to
/// minw past its predecessor, backward lowers it to minw before its (already
/// final) successor — feasible whenever n*minw <= L, which the caller checks.
void clamp_min_widths(std::vector<double>& cuts, double minw) {
  for (std::size_t i = 1; i + 1 < cuts.size(); ++i)
    cuts[i] = std::max(cuts[i], cuts[i - 1] + minw);
  for (std::size_t i = cuts.size() - 2; i >= 1; --i)
    cuts[i] = std::min(cuts[i], cuts[i + 1] - minw);
}

/// Atom-count-equalizing cut planes along `axis`: boundary i sits at the
/// midpoint of the coordinate pair straddling the i-th n-quantile of the
/// (wrapped) positions.
std::vector<double> count_equalizing_cuts(const md::Box& box,
                                          const std::vector<Vec3>& positions, int axis, int n,
                                          double minw) {
  std::vector<double> xs;
  xs.reserve(positions.size());
  for (const Vec3& p : positions) xs.push_back(box.wrap(p)[static_cast<std::size_t>(axis)]);
  std::sort(xs.begin(), xs.end());
  const double L = box.lengths()[static_cast<std::size_t>(axis)];
  std::vector<double> cuts(static_cast<std::size_t>(n) + 1);
  cuts.front() = 0.0;
  cuts.back() = L;
  for (int i = 1; i < n; ++i) {
    const std::size_t q = std::clamp<std::size_t>(
        static_cast<std::size_t>(i) * xs.size() / static_cast<std::size_t>(n), 1,
        xs.size() - 1);
    cuts[static_cast<std::size_t>(i)] = 0.5 * (xs[q - 1] + xs[q]);
  }
  clamp_min_widths(cuts, minw);
  return cuts;
}

}  // namespace

Decomp::Decomp(const md::Box& box, std::array<int, 3> grid) : box_(box), grid_(grid) {
  DP_CHECK(grid[0] >= 1 && grid[1] >= 1 && grid[2] >= 1);
  const Vec3 L = box_.lengths();
  cell_ = {L.x / grid_[0], L.y / grid_[1], L.z / grid_[2]};
}

Decomp::Decomp(const md::Box& box, std::array<int, 3> grid, const std::vector<Vec3>& positions,
               double halo_width)
    : Decomp(box, grid) {
  std::size_t axis = 0;
  for (std::size_t d = 1; d < 3; ++d)
    if (grid_[d] > grid_[axis]) axis = d;
  const int n = grid_[axis];
  const double minw = kMinWidthFactor * halo_width;
  if (n > 1 && box_.lengths()[axis] >= n * minw && positions.size() >= 2) {
    set_cuts(static_cast<int>(axis),
             count_equalizing_cuts(box_, positions, static_cast<int>(axis), n, minw));
  }
}

std::array<int, 3> Decomp::choose_grid(const md::Box& box, int nranks) {
  DP_CHECK(nranks >= 1);
  const Vec3 L = box.lengths();
  std::array<int, 3> best{1, 1, nranks};
  double best_score = -1.0;
  for (int nx = 1; nx <= nranks; ++nx) {
    if (nranks % nx != 0) continue;
    for (int ny = 1; ny * nx <= nranks; ++ny) {
      if ((nranks / nx) % ny != 0) continue;
      const int nz = nranks / (nx * ny);
      // Score = min/max sub-domain edge: 1.0 is a perfect cube.
      const double ex = L.x / nx, ey = L.y / ny, ez = L.z / nz;
      const double score = std::min({ex, ey, ez}) / std::max({ex, ey, ez});
      if (score > best_score) {
        best_score = score;
        best = {nx, ny, nz};
      }
    }
  }
  return best;
}

std::array<int, 3> Decomp::coords_of(int rank) const {
  DP_CHECK(rank >= 0 && rank < nranks());
  return {rank / (grid_[1] * grid_[2]), (rank / grid_[2]) % grid_[1], rank % grid_[2]};
}

int Decomp::rank_of(const std::array<int, 3>& c) const {
  return (c[0] * grid_[1] + c[1]) * grid_[2] + c[2];
}

int Decomp::coord_of(int dim, double x) const {
  const auto d = static_cast<std::size_t>(dim);
  const int n = grid_[d];
  if (cuts_[d].empty()) {
    // Uniform fast path.
    return std::min(static_cast<int>(x / cell_[d]), n - 1);
  }
  const auto& cuts = cuts_[d];
  // First interior boundary strictly greater than x owns the next slab;
  // coordinates at or past the last boundary clamp into the last slab.
  const auto it = std::upper_bound(cuts.begin() + 1, cuts.end() - 1, x);
  return static_cast<int>(it - (cuts.begin() + 1));
}

int Decomp::owner_of(const Vec3& pos) const {
  const Vec3 p = box_.wrap(pos);
  std::array<int, 3> c;
  for (int d = 0; d < 3; ++d) {
    c[static_cast<std::size_t>(d)] = coord_of(d, p[static_cast<std::size_t>(d)]);
  }
  return rank_of(c);
}

double Decomp::cut(int dim, int i) const {
  const auto d = static_cast<std::size_t>(dim);
  if (cuts_[d].empty()) return i * cell_[d];
  return cuts_[d][static_cast<std::size_t>(i)];
}

void Decomp::set_cuts(int dim, const std::vector<double>& cuts) {
  const auto d = static_cast<std::size_t>(dim);
  const int n = grid_[d];
  DP_CHECK_MSG(static_cast<int>(cuts.size()) == n + 1,
               "set_cuts: need " << n + 1 << " planes, got " << cuts.size());
  const double L = box_.lengths()[d];
  DP_CHECK_MSG(cuts.front() == 0.0 && cuts.back() == L,
               "set_cuts: planes must span [0, " << L << "] exactly");
  for (std::size_t i = 1; i < cuts.size(); ++i)
    DP_CHECK_MSG(cuts[i] > cuts[i - 1], "set_cuts: planes must strictly increase");
  cuts_[d] = cuts;
}

void Decomp::scale(double mu) {
  box_ = md::Box(box_.lengths() * mu);
  cell_ *= mu;
  for (auto& cuts : cuts_)
    for (double& c : cuts) c *= mu;
}

Vec3 Decomp::lo(int rank) const {
  const auto c = coords_of(rank);
  return {cut(0, c[0]), cut(1, c[1]), cut(2, c[2])};
}

Vec3 Decomp::hi(int rank) const {
  const auto c = coords_of(rank);
  return {cut(0, c[0] + 1), cut(1, c[1] + 1), cut(2, c[2] + 1)};
}

int Decomp::neighbor(int rank, int dim, int dir) const {
  auto c = coords_of(rank);
  const int n = grid_[static_cast<std::size_t>(dim)];
  c[static_cast<std::size_t>(dim)] = ((c[static_cast<std::size_t>(dim)] + dir) % n + n) % n;
  return rank_of(c);
}

double Decomp::min_extent() const {
  double m = std::min({cell_.x, cell_.y, cell_.z});
  for (int d = 0; d < 3; ++d) {
    if (!has_cuts(d)) continue;
    for (int c = 0; c < grid_[static_cast<std::size_t>(d)]; ++c)
      m = std::min(m, width(d, c));
  }
  return m;
}

double Decomp::ghost_fraction(double halo_width) const {
  // Volume of the shell of width h around a cell, relative to the cell.
  const double vx = cell_.x, vy = cell_.y, vz = cell_.z;
  const double inner = vx * vy * vz;
  const double outer = (vx + 2 * halo_width) * (vy + 2 * halo_width) * (vz + 2 * halo_width);
  return (outer - inner) / inner;
}

}  // namespace dp::par
