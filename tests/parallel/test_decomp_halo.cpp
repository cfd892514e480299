#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "parallel/halo.hpp"
#include "parallel/minimpi.hpp"

namespace dp::par {
namespace {

TEST(Decomp, ChooseGridCoversRanks) {
  md::Box box(20, 20, 20);
  for (int n : {1, 2, 3, 4, 6, 8, 12, 16, 27, 64}) {
    const auto g = Decomp::choose_grid(box, n);
    EXPECT_EQ(g[0] * g[1] * g[2], n) << n;
  }
}

TEST(Decomp, ChooseGridPrefersCubes) {
  md::Box box(20, 20, 20);
  EXPECT_EQ(Decomp::choose_grid(box, 8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(Decomp::choose_grid(box, 27), (std::array<int, 3>{3, 3, 3}));
}

TEST(Decomp, ChooseGridFollowsAnisotropy) {
  md::Box box(80, 20, 20);  // long in x: split x first
  const auto g = Decomp::choose_grid(box, 4);
  EXPECT_EQ(g, (std::array<int, 3>{4, 1, 1}));
}

TEST(Decomp, CoordsRoundTrip) {
  Decomp d(md::Box(10, 10, 10), {2, 3, 4});
  for (int r = 0; r < d.nranks(); ++r) EXPECT_EQ(d.rank_of(d.coords_of(r)), r);
}

TEST(Decomp, OwnershipPartitionsBox) {
  Decomp d(md::Box(12, 9, 15), {2, 3, 1});
  Rng rng(1);
  for (int k = 0; k < 2000; ++k) {
    Vec3 p{rng.uniform(0, 12), rng.uniform(0, 9), rng.uniform(0, 15)};
    const int owner = d.owner_of(p);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 6);
    // p must lie inside the owner's [lo, hi).
    const Vec3 lo = d.lo(owner), hi = d.hi(owner);
    for (int dim = 0; dim < 3; ++dim) {
      EXPECT_GE(p[static_cast<std::size_t>(dim)], lo[static_cast<std::size_t>(dim)]);
      EXPECT_LT(p[static_cast<std::size_t>(dim)], hi[static_cast<std::size_t>(dim)]);
    }
  }
}

TEST(Decomp, NeighborWrapsPeriodically) {
  Decomp d(md::Box(10, 10, 10), {3, 1, 1});
  EXPECT_EQ(d.neighbor(0, 0, -1), d.rank_of({2, 0, 0}));
  EXPECT_EQ(d.neighbor(2, 0, +1), 0);
  EXPECT_EQ(d.neighbor(0, 1, +1), 0);  // single-rank dimension: self
}

TEST(Decomp, GhostFractionGrowsWithRankCount) {
  md::Box box(40, 40, 40);
  const double f1 = Decomp(box, {1, 1, 1}).ghost_fraction(6.0);
  const double f8 = Decomp(box, {2, 2, 2}).ghost_fraction(6.0);
  const double f64 = Decomp(box, {4, 4, 4}).ghost_fraction(6.0);
  EXPECT_LT(f1, f8);
  EXPECT_LT(f8, f64);
}

TEST(Decomp, UniformCutsMatchImplicitGrid) {
  // Installing cuts at exactly the uniform planes must not change a single
  // answer: coord_of, owner_of, lo/hi and min_extent all agree with the
  // cut-free decomposition (same arithmetic, different storage).
  const md::Box box(12, 9, 15);
  Decomp uniform(box, {4, 1, 1});
  Decomp explicit_cuts(box, {4, 1, 1});
  explicit_cuts.set_cuts(0, {0.0, 3.0, 6.0, 9.0, 12.0});
  EXPECT_TRUE(explicit_cuts.has_cuts(0));
  EXPECT_FALSE(explicit_cuts.has_cuts(1));

  Rng rng(7);
  for (int k = 0; k < 2000; ++k) {
    Vec3 p{rng.uniform(0, 12), rng.uniform(0, 9), rng.uniform(0, 15)};
    EXPECT_EQ(explicit_cuts.owner_of(p), uniform.owner_of(p));
    EXPECT_EQ(explicit_cuts.coord_of(0, p.x), uniform.coord_of(0, p.x));
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(explicit_cuts.lo(r).x, uniform.lo(r).x);
    EXPECT_EQ(explicit_cuts.hi(r).x, uniform.hi(r).x);
  }
  EXPECT_EQ(explicit_cuts.min_extent(), uniform.min_extent());
}

TEST(Decomp, NonUniformCutsMoveOwnership) {
  const md::Box box(10, 10, 10);
  Decomp d(box, {2, 1, 1});
  d.set_cuts(0, {0.0, 7.5, 10.0});

  EXPECT_EQ(d.cut(0, 1), 7.5);
  EXPECT_EQ(d.width(0, 0), 7.5);
  EXPECT_EQ(d.width(0, 1), 2.5);
  EXPECT_EQ(d.coord_of(0, 7.4), 0);
  EXPECT_EQ(d.coord_of(0, 7.5), 1);  // planes belong to the upper slab
  EXPECT_EQ(d.owner_of({9.0, 1.0, 1.0}), d.rank_of({1, 0, 0}));
  EXPECT_EQ(d.owner_of({1.0, 1.0, 1.0}), d.rank_of({0, 0, 0}));
  // min_extent now reflects the narrow slab, not the uniform width.
  EXPECT_EQ(d.min_extent(), 2.5);
  // Untouched dimensions keep the uniform planes.
  EXPECT_EQ(d.cut(1, 1), 10.0);
}

TEST(Decomp, SetCutsRejectsMalformedPlanes) {
  Decomp d(md::Box(10, 10, 10), {2, 1, 1});
  EXPECT_THROW(d.set_cuts(0, {0.0, 5.0}), Error);              // wrong count
  EXPECT_THROW(d.set_cuts(0, {0.5, 5.0, 10.0}), Error);        // not at 0
  EXPECT_THROW(d.set_cuts(0, {0.0, 5.0, 9.0}), Error);         // not at L
  EXPECT_THROW(d.set_cuts(0, {0.0, 10.0, 10.0}), Error);       // degenerate slab
  EXPECT_THROW(d.set_cuts(0, {0.0, 12.0, 10.0}), Error);       // non-monotone
}

/// 400 atoms spread over the lower half of a 40 A box along x.
std::vector<Vec3> lower_half_positions() {
  Rng rng(11);
  std::vector<Vec3> pos;
  for (int k = 0; k < 400; ++k)
    pos.push_back({rng.uniform(0, 20), rng.uniform(0, 10), rng.uniform(0, 10)});
  return pos;
}

std::vector<int> atoms_per_rank(const Decomp& d, const std::vector<Vec3>& pos) {
  std::vector<int> counts(static_cast<std::size_t>(d.nranks()), 0);
  for (const Vec3& p : pos) ++counts[static_cast<std::size_t>(d.owner_of(p))];
  return counts;
}

TEST(Decomp, CountEqualizedPlanesSplitAtomsEvenly) {
  const md::Box box(40, 10, 10);
  const auto pos = lower_half_positions();
  const Decomp d(box, {4, 1, 1}, pos, 2.0);
  EXPECT_TRUE(d.has_cuts(0));
  EXPECT_FALSE(d.has_cuts(1));
  EXPECT_EQ(atoms_per_rank(d, pos), (std::vector<int>{100, 100, 100, 100}));
  // The uniform grid leaves the upper two slabs empty.
  const auto uniform = atoms_per_rank(Decomp(box, {4, 1, 1}), pos);
  EXPECT_EQ(uniform[2] + uniform[3], 0);
}

TEST(Decomp, CountEqualizedPlanesFollowTheAxisWithMostRanks) {
  const md::Box box(10, 40, 10);
  std::vector<Vec3> pos = lower_half_positions();
  for (Vec3& p : pos) std::swap(p.x, p.y);
  const Decomp d(box, {2, 4, 1}, pos, 2.0);
  EXPECT_FALSE(d.has_cuts(0));
  EXPECT_TRUE(d.has_cuts(1));
}

TEST(Decomp, CountEqualizedSlabsStayWiderThanTheHalo) {
  // 6.3 A minimum slabs cannot hold the quantile planes (~5 A apart): the
  // planes are clamped, so the counts give way, not the width.
  const md::Box box(40, 10, 10);
  const auto pos = lower_half_positions();
  const Decomp d(box, {4, 1, 1}, pos, 6.0);
  EXPECT_TRUE(d.has_cuts(0));
  EXPECT_GE(d.min_extent(), 6.0 * 1.05 - 1e-12);
  EXPECT_NO_THROW(HaloExchange(d, 0, 6.0));
}

TEST(Decomp, CountEqualizedFallsBackToUniform) {
  const md::Box box(40, 10, 10);
  const auto pos = lower_half_positions();
  // Four slabs of 1.05 x 10 A do not fit in 40 A.
  EXPECT_FALSE(Decomp(box, {4, 1, 1}, pos, 10.0).has_cuts(0));
  // Fewer than two atoms have no quantiles to split.
  EXPECT_FALSE(Decomp(box, {4, 1, 1}, {pos.front()}, 2.0).has_cuts(0));
  // One rank per axis has no plane to place.
  const Decomp single(box, {1, 1, 1}, pos, 2.0);
  for (int dim = 0; dim < 3; ++dim) EXPECT_FALSE(single.has_cuts(dim));
}

// ---------------------------------------------------------------------------

/// Every rank's local + ghost view must reproduce the serial neighborhood:
/// for each local atom, the set of positions within the cutoff must match
/// the serial minimum-image result.
void check_ghost_view(int nranks, std::array<int, 3> grid, const md::Configuration& sys,
                      double halo, bool count_equalized = false) {
  run_parallel(nranks, [&](Communicator& comm) {
    const Decomp decomp = count_equalized ? Decomp(sys.box, grid, sys.atoms.pos, halo)
                                          : Decomp(sys.box, grid);
    const int rank = comm.rank();
    md::Atoms atoms;
    atoms.mass_by_type = sys.atoms.mass_by_type;
    std::vector<std::size_t> ids;
    for (std::size_t a = 0; a < sys.atoms.size(); ++a)
      if (decomp.owner_of(sys.atoms.pos[a]) == rank) {
        atoms.add(sys.box.wrap(sys.atoms.pos[a]), sys.atoms.type[a]);
        ids.push_back(a);
      }
    const std::size_t n_local = atoms.size();
    HaloExchange halo_ex(decomp, rank, halo);
    halo_ex.exchange_ghosts(comm, atoms);

    // Serial reference neighborhoods.
    auto serial = md::brute_force_neighbors(sys.box, sys.atoms.pos, halo);

    for (std::size_t a = 0; a < n_local; ++a) {
      // Collect distances of all local+ghost atoms within halo (plain
      // Cartesian — ghosts already carry the right shifts).
      std::vector<double> got;
      for (std::size_t b = 0; b < atoms.size(); ++b) {
        if (b == a) continue;
        const double r2 = norm2(atoms.pos[b] - atoms.pos[a]);
        if (r2 < halo * halo) got.push_back(r2);
      }
      std::vector<double> want;
      for (int j : serial[ids[a]]) {
        const Vec3 d = sys.box.min_image(sys.atoms.pos[static_cast<std::size_t>(j)] -
                                         sys.atoms.pos[ids[a]]);
        want.push_back(norm2(d));
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got.size(), want.size()) << "rank " << rank << " atom " << a;
      for (std::size_t k = 0; k < got.size(); ++k)
        ASSERT_NEAR(got[k], want[k], 1e-8) << "rank " << rank << " atom " << a;
    }
  });
}

TEST(HaloExchange, GhostViewMatchesSerial2Ranks) {
  auto sys = md::make_fcc(6, 6, 6, 3.634, 63.546, 0.1, 3);
  check_ghost_view(2, {2, 1, 1}, sys, 6.0);
}

TEST(HaloExchange, GhostViewMatchesSerial8Ranks) {
  auto sys = md::make_fcc(8, 8, 8, 3.634, 63.546, 0.1, 4);
  check_ghost_view(8, {2, 2, 2}, sys, 6.0);
}

TEST(HaloExchange, GhostViewMatchesSerialAnisotropicGrid) {
  auto sys = md::make_fcc(8, 4, 4, 3.634, 63.546, 0.1, 5);
  check_ghost_view(4, {4, 1, 1}, sys, 6.0);
}

TEST(HaloExchange, GhostViewMatchesSerialCountEqualizedSlabs) {
  // A crystal filling half the box along x: the count-equalized planes sit
  // inside it at unequal spacings, and the last slab spans the vacuum.
  auto sys = md::make_fcc(6, 4, 4, 3.634, 63.546, 0.1, 8);
  const Vec3 L = sys.box.lengths();
  sys.box = md::Box(2.0 * L.x, L.y, L.z);
  ASSERT_TRUE(Decomp(sys.box, {4, 1, 1}, sys.atoms.pos, 6.0).has_cuts(0));
  check_ghost_view(4, {4, 1, 1}, sys, 6.0, /*count_equalized=*/true);
}

TEST(HaloExchange, RejectsTooWideHalo) {
  md::Box box(20, 20, 20);
  Decomp decomp(box, {4, 1, 1});  // 5 A sub-domains
  EXPECT_THROW(HaloExchange(decomp, 0, 6.0), Error);
}

TEST(HaloExchange, ForceReductionConservesTotal) {
  // Scatter random forces on ghosts; after reduction the global sum over
  // owners must equal the sum over all (local + ghost) contributions.
  auto sys = md::make_fcc(6, 6, 6, 3.634, 63.546, 0.1, 6);
  const std::array<int, 3> grid{2, 2, 1};
  std::mutex mu;
  Vec3 scattered_total{}, owned_total{};
  run_parallel(4, [&](Communicator& comm) {
    const Decomp decomp(sys.box, grid);
    const int rank = comm.rank();
    md::Atoms atoms;
    atoms.mass_by_type = sys.atoms.mass_by_type;
    for (std::size_t a = 0; a < sys.atoms.size(); ++a)
      if (decomp.owner_of(sys.atoms.pos[a]) == rank)
        atoms.add(sys.box.wrap(sys.atoms.pos[a]), sys.atoms.type[a]);
    const std::size_t n_local = atoms.size();
    HaloExchange halo_ex(decomp, rank, 6.0);
    halo_ex.exchange_ghosts(comm, atoms);

    Rng rng(100 + static_cast<std::uint64_t>(rank));
    Vec3 local_scattered{};
    for (auto& f : atoms.force) {
      f = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
      local_scattered += f;
    }
    halo_ex.reduce_forces(comm, atoms);
    Vec3 local_owned{};
    for (std::size_t a = 0; a < n_local; ++a) local_owned += atoms.force[a];

    std::lock_guard lock(mu);
    scattered_total += local_scattered;
    owned_total += local_owned;
  });
  EXPECT_NEAR(norm(scattered_total - owned_total), 0.0, 1e-9);
}

TEST(Migrate, MovesAtomsToOwners) {
  auto sys = md::make_fcc(6, 6, 6, 3.634, 63.546, 0.0, 7);
  const std::array<int, 3> grid{2, 2, 2};
  std::mutex mu;
  std::set<std::int64_t> seen;
  std::size_t total = 0;
  run_parallel(8, [&](Communicator& comm) {
    const Decomp decomp(sys.box, grid);
    const int rank = comm.rank();
    // Deliberately mis-assign: round-robin instead of geometric.
    md::Atoms atoms;
    atoms.mass_by_type = sys.atoms.mass_by_type;
    std::vector<std::int64_t> ids;
    for (std::size_t a = 0; a < sys.atoms.size(); ++a)
      if (static_cast<int>(a % 8) == rank) {
        // Nudge every atom slightly so some cross sub-domain boundaries.
        Vec3 p = sys.atoms.pos[a];
        p.x += 0.3;
        atoms.add(sys.box.wrap(p), sys.atoms.type[a]);
        ids.push_back(static_cast<std::int64_t>(a));
      }
    // Round-robin assignment puts atoms arbitrarily far from their owner;
    // hop until settled (each migrate moves one sub-domain per dimension).
    bool settled = false;
    for (int hop = 0; hop < 4 && !settled; ++hop) {
      try {
        migrate(comm, sys.box, decomp, rank, atoms, &ids);
        settled = true;
      } catch (const Error&) {
        settled = false;
      }
      // All ranks must agree to continue hopping.
      settled = comm.allreduce_max(settled ? 0.0 : 1.0) == 0.0;
    }
    EXPECT_TRUE(settled);
    for (const auto& p : atoms.pos) EXPECT_EQ(decomp.owner_of(p), rank);
    std::lock_guard lock(mu);
    total += atoms.size();
    for (auto id : ids) EXPECT_TRUE(seen.insert(id).second) << "duplicate atom " << id;
  });
  EXPECT_EQ(total, sys.atoms.size());
  EXPECT_EQ(seen.size(), sys.atoms.size());
}

}  // namespace
}  // namespace dp::par
