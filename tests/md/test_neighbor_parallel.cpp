// Parity suite for the OpenMP-parallel neighbor build: the CSR output of
// build / build_half / build_brute must be byte-identical to the 1-thread
// build at every thread count, across periodic/non-periodic boxes, uneven
// densities and the small-box brute-force fallback — the property that
// keeps forces bitwise-reproducible regardless of OMP_NUM_THREADS.
#include "md/neighbor.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <vector>

#include "common/rng.hpp"
#include "md/lattice.hpp"

namespace dp::md {
namespace {

/// Restores the calling thread's OpenMP team size on scope exit.
struct ThreadGuard {
  int saved = omp_get_max_threads();
  ~ThreadGuard() { omp_set_num_threads(saved); }
};

/// The full CSR, reconstructed through the public span API: offsets from
/// cumulative span lengths, list from the concatenated spans. Two lists
/// with equal snapshots are byte-identical.
struct Csr {
  std::vector<int> offsets{0};
  std::vector<int> list;
  bool operator==(const Csr&) const = default;
};

Csr snapshot(const NeighborList& nl) {
  Csr out;
  for (std::size_t i = 0; i < nl.n_centers(); ++i) {
    const auto span = nl.neighbors(i);
    out.list.insert(out.list.end(), span.begin(), span.end());
    out.offsets.push_back(static_cast<int>(out.list.size()));
  }
  return out;
}

std::vector<Vec3> random_positions(const Box& box, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pos(n);
  for (auto& r : pos)
    r = {rng.uniform(0.0, box.lengths().x), rng.uniform(0.0, box.lengths().y),
         rng.uniform(0.0, box.lengths().z)};
  return pos;
}

/// Dense blob in one octant + sparse gas elsewhere: the uneven-density case
/// where per-thread work differs by an order of magnitude.
std::vector<Vec3> uneven_positions(const Box& box, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pos(n);
  const Vec3 L = box.lengths();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 3 * n / 4) {
      pos[i] = {rng.uniform(0.0, 0.25 * L.x), rng.uniform(0.0, 0.25 * L.y),
                rng.uniform(0.0, 0.25 * L.z)};
    } else {
      pos[i] = {rng.uniform(0.0, L.x), rng.uniform(0.0, L.y), rng.uniform(0.0, L.z)};
    }
  }
  return pos;
}

constexpr int kThreadCounts[] = {2, 4, 8};

void expect_build_parity(const Box& box, const std::vector<Vec3>& pos, double rc, double skin,
                         std::size_t n_centers = SIZE_MAX, bool periodic = true) {
  ThreadGuard guard;
  omp_set_num_threads(1);
  NeighborList serial(rc, skin);
  serial.build(box, pos, n_centers, periodic);
  const Csr want = snapshot(serial);
  for (int t : kThreadCounts) {
    omp_set_num_threads(t);
    NeighborList threaded(rc, skin);
    threaded.build(box, pos, n_centers, periodic);
    EXPECT_EQ(want, snapshot(threaded)) << "threads=" << t;
  }
}

TEST(NeighborParallel, BuildParityPeriodicRandom) {
  Box box(25, 25, 25);
  expect_build_parity(box, random_positions(box, 400, 11), 5.0, 1.0);
}

TEST(NeighborParallel, BuildParityNonPeriodic) {
  Box box(50, 50, 50);
  expect_build_parity(box, random_positions(box, 300, 12), 6.0, 1.0, SIZE_MAX,
                      /*periodic=*/false);
}

TEST(NeighborParallel, BuildParityUnevenDensity) {
  Box box(30, 30, 30);
  expect_build_parity(box, uneven_positions(box, 500, 13), 4.0, 1.0);
}

TEST(NeighborParallel, BuildParityAnisotropicBox) {
  Box box(42, 15, 21);
  expect_build_parity(box, random_positions(box, 350, 14), 4.5, 0.5);
}

TEST(NeighborParallel, BuildParityBruteForceFallback) {
  // Box only ~2 cells across: exercises the threaded quadratic fallback.
  Box box(13, 13, 13);
  expect_build_parity(box, random_positions(box, 150, 15), 4.0, 2.0);
}

TEST(NeighborParallel, BuildParityCentersPrefix) {
  // Ghost-style call: centers are a prefix, the tail acts as ghosts.
  Box box(28, 28, 28);
  expect_build_parity(box, random_positions(box, 300, 16), 5.0, 1.0, 120,
                      /*periodic=*/false);
}

TEST(NeighborParallel, BuildParityMoreThreadsThanCenters) {
  Box box(20, 20, 20);
  expect_build_parity(box, random_positions(box, 5, 17), 5.0, 1.0);
}

TEST(NeighborParallel, HalfListParity) {
  Box box(24, 24, 24);
  const auto pos = random_positions(box, 400, 18);
  ThreadGuard guard;
  omp_set_num_threads(1);
  NeighborList serial(5.0, 1.0);
  serial.build_half(box, pos);
  const Csr want = snapshot(serial);
  for (int t : kThreadCounts) {
    omp_set_num_threads(t);
    NeighborList threaded(5.0, 1.0);
    threaded.build_half(box, pos);
    EXPECT_TRUE(threaded.is_half());
    EXPECT_EQ(want, snapshot(threaded)) << "threads=" << t;
  }
}

TEST(NeighborParallel, RepeatedRebuildsAreAllocationFree) {
  // Steady state: after a couple of warm-up builds (capacities alternate
  // once through build_half's buffer swap), the persistent workspace stops
  // growing — rebuilds allocate nothing.
  Box box(25, 25, 25);
  const auto base = random_positions(box, 500, 20);
  ThreadGuard guard;
  omp_set_num_threads(4);
  NeighborList nl(5.0, 1.0);
  Rng rng(21);
  auto jittered = [&] {
    auto pos = base;  // fluctuation around one frame, like skin-bounded MD
    for (auto& r : pos) r = box.wrap(r + rng.unit_vector() * rng.uniform(0.0, 0.4));
    return pos;
  };
  for (int warm = 0; warm < 3; ++warm) nl.build(box, jittered());
  const std::size_t steady = nl.workspace_bytes();
  EXPECT_GT(steady, 0u);
  for (int rebuild = 0; rebuild < 10; ++rebuild) {
    nl.build(box, jittered());
    EXPECT_EQ(steady, nl.workspace_bytes()) << "rebuild " << rebuild;
  }
}

TEST(NeighborParallel, NeedsRebuildIgnoresGhostTail) {
  // Only the center prefix is retained and checked: a ghost moving (or
  // being wildly wrong) must not trigger a rebuild — ghosts are re-derived
  // every step and owned (as locals) by exactly one other rank, whose own
  // check covers them. A changed atom count still invalidates outright.
  Box box(30, 30, 30);
  auto pos = random_positions(box, 200, 22);
  NeighborList nl(5.0, 2.0);
  nl.build(box, pos, 120, /*periodic=*/false);
  EXPECT_FALSE(nl.needs_rebuild(box, pos, 120));
  pos[150] += Vec3{9.0, 9.0, 9.0};  // ghost slot: beyond any skin
  EXPECT_FALSE(nl.needs_rebuild(box, pos, 120));
  pos[30] += Vec3{1.5, 0.0, 0.0};  // center slot: > skin/2
  EXPECT_TRUE(nl.needs_rebuild(box, pos, 120));
  pos[30] -= Vec3{1.5, 0.0, 0.0};
  pos.push_back(Vec3{1, 1, 1});  // ghost count changed: stale by size
  EXPECT_TRUE(nl.needs_rebuild(box, pos, 120));
}

}  // namespace
}  // namespace dp::md
