#include "md/neighbor.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/team.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dp::md {

namespace {

// The fork-join team, BodyRef, and chunk_bound moved to common/team.hpp so
// the environment-matrix build and the force/virial fold share the same
// TSan-visible primitive (see the header and docs/STATIC_ANALYSIS.md for
// the happens-before argument).

struct CellGrid {
  int nx, ny, nz;
  double cx, cy, cz;  // cell sizes
  int index_of(const Vec3& r) const {
    int ix = std::min(static_cast<int>(r.x / cx), nx - 1);
    int iy = std::min(static_cast<int>(r.y / cy), ny - 1);
    int iz = std::min(static_cast<int>(r.z / cz), nz - 1);
    ix = std::max(ix, 0);
    iy = std::max(iy, 0);
    iz = std::max(iz, 0);
    return (ix * ny + iy) * nz + iz;
  }
};

/// Deterministic parallel CSR construction: per-center counts + per-thread
/// caches -> exclusive scan -> disjoint slab copies.
///
/// Happens-before argument (see docs/STATIC_ANALYSIS.md): the walk phase
/// writes disjoint `offsets` slots and thread-private caches; a barrier
/// orders every count before the thread-0 scan; a second barrier orders
/// the scan (and the `list.resize`) before every slab copy; slab copies
/// target disjoint [offsets[begin], offsets[end]) ranges by construction.
/// BuildTeam::run's check-in orders all writes before any reader of the
/// list. No atomics are needed — every cross-thread edge is a BuildTeam
/// barrier or the job hand-off, all mutex-based and TSan-visible.
///
/// `walk(i, out)` appends center i's neighbors to `out` in the same order
/// a serial loop would produce; the concatenation in center order is then
/// independent of the thread count, so the output CSR is byte-identical
/// at any OMP_NUM_THREADS.
template <class Walk>
void fill_csr_parallel(std::size_t n_centers, std::vector<int>& offsets,
                       std::vector<int>& list, NeighborWorkspace& ws, Walk&& walk) {
  offsets.assign(n_centers + 1, 0);
  const int team_size = std::max(1, omp_get_max_threads());
  if (ws.tl.size() < static_cast<std::size_t>(team_size))
    ws.tl.resize(static_cast<std::size_t>(team_size));
  bool overflow = false;
  BuildTeam& team = BuildTeam::team();
  auto body = [&](int t, int T) {
    std::vector<int>& buf = ws.tl[static_cast<std::size_t>(t)];
    buf.clear();
    const std::size_t begin = chunk_bound(n_centers, t, T);
    const std::size_t end = chunk_bound(n_centers, t + 1, T);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t before = buf.size();
      walk(i, buf);
      // Per-center counts fit an int (a center has < n_atoms <= INT_MAX
      // neighbors); the *sum* is checked below before the scan commits.
      offsets[i + 1] = static_cast<int>(buf.size() - before);
    }
    team.barrier();
    if (t == 0) {
      std::size_t total = 0;
      for (std::size_t i = 0; i < n_centers; ++i)
        total += static_cast<std::size_t>(offsets[i + 1]);
      if (total > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
        overflow = true;  // checked after the job; slab copies are skipped
      } else {
        for (std::size_t i = 0; i < n_centers; ++i) offsets[i + 1] += offsets[i];
        list.resize(total);
      }
    }
    team.barrier();  // scan + resize visible to every slab copy below
    if (!overflow && begin < end && !buf.empty())
      std::memcpy(list.data() + offsets[begin], buf.data(), buf.size() * sizeof(int));
  };
  team.run(team_size, BodyRef(body));
  DP_CHECK_MSG(!overflow,
               "neighbor list exceeds 2^31 slots — the int CSR cannot index it; "
               "shard the system across ranks or widen the index type");
}

/// Two-pass parallel counting sort of atoms into cells. Pass 1 fills
/// per-thread histograms over contiguous index chunks; a single-threaded
/// scan converts them to per-(cell, thread) cursors; pass 2 scatters.
/// Within a cell, slots are ordered by (thread, index-in-chunk) which — by
/// chunk contiguity — is global index order: byte-identical to the serial
/// cursor fill at any thread count. Same barrier-only happens-before
/// structure as fill_csr_parallel.
void bin_atoms_parallel(const Box& box, const std::vector<Vec3>& pos, const CellGrid& grid,
                        int ncells, bool periodic, NeighborWorkspace& ws) {
  const std::size_t n_pos = pos.size();
  ws.atom_cell.resize(n_pos);
  ws.cell_atoms.resize(n_pos);
  ws.cell_start.resize(static_cast<std::size_t>(ncells) + 1);
  const int team_size = std::max(1, omp_get_max_threads());
  ws.hist.assign(static_cast<std::size_t>(team_size) * static_cast<std::size_t>(ncells), 0);
  BuildTeam& team = BuildTeam::team();
  auto body = [&](int t, int T) {
    int* h = ws.hist.data() + static_cast<std::size_t>(t) * static_cast<std::size_t>(ncells);
    const std::size_t begin = chunk_bound(n_pos, t, T);
    const std::size_t end = chunk_bound(n_pos, t + 1, T);
    for (std::size_t a = begin; a < end; ++a) {
      // Non-periodic ghost positions may lie outside the box; index_of's
      // clamp handles the fringe since the ghost shell is thinner than one
      // cell (cells >= cutoff >= ghost shell).
      const Vec3 r = periodic ? box.wrap(pos[a]) : pos[a];
      const int c = grid.index_of(r);
      ws.atom_cell[a] = c;
      ++h[c];
    }
    team.barrier();
    if (t == 0) {
      int run = 0;  // n_pos <= INT_MAX is checked by build()
      for (int c = 0; c < ncells; ++c) {
        ws.cell_start[static_cast<std::size_t>(c)] = run;
        for (int tt = 0; tt < T; ++tt) {
          int& slot = ws.hist[static_cast<std::size_t>(tt) * static_cast<std::size_t>(ncells) +
                              static_cast<std::size_t>(c)];
          const int count = slot;
          slot = run;  // becomes thread tt's scatter cursor for cell c
          run += count;
        }
      }
      ws.cell_start[static_cast<std::size_t>(ncells)] = run;
    }
    team.barrier();  // cursors visible to every scatter below
    for (std::size_t a = begin; a < end; ++a)
      ws.cell_atoms[static_cast<std::size_t>(h[ws.atom_cell[a]]++)] = static_cast<int>(a);
  };
  team.run(team_size, BodyRef(body));
}

struct NeighborMetrics {
  obs::Counter& builds = obs::MetricsRegistry::instance().counter("neighbor.builds");
  obs::Histogram& build_seconds =
      obs::MetricsRegistry::instance().histogram("neighbor.build_seconds");
  obs::Histogram& bin_seconds =
      obs::MetricsRegistry::instance().histogram("neighbor.bin_seconds");
  obs::Histogram& walk_seconds =
      obs::MetricsRegistry::instance().histogram("neighbor.walk_seconds");
  obs::Gauge& workspace_bytes =
      obs::MetricsRegistry::instance().gauge("neighbor.workspace_bytes");
  static NeighborMetrics& get() {
    static NeighborMetrics m;
    return m;
  }
};
}  // namespace

std::size_t NeighborWorkspace::bytes() const {
  std::size_t b = (atom_cell.capacity() + cell_start.capacity() + cell_atoms.capacity() +
                   hist.capacity() + half_offsets.capacity() + half_list.capacity()) *
                  sizeof(int);
  b += tl.capacity() * sizeof(std::vector<int>);
  for (const auto& v : tl) b += v.capacity() * sizeof(int);
  return b;
}

std::size_t NeighborList::workspace_bytes() const {
  return ws_.bytes() + (offsets_.capacity() + list_.capacity()) * sizeof(int) +
         pos_at_build_.capacity() * sizeof(Vec3);
}

void NeighborList::build_half(const Box& box, const std::vector<Vec3>& pos, bool periodic) {
  // Build the full list, then keep each pair on its lower-index atom: the
  // extra pass is cheap next to the distance tests and reuses the same
  // (well-tested) cell machinery. The filter itself runs through the
  // count-then-fill scheme, writing into workspace scratch that is then
  // swapped with the CSR (swap exchanges capacities, so both buffers reach
  // their steady size after one warm-up cycle and stay allocation-free).
  build(box, pos, SIZE_MAX, periodic);
  const std::size_t n = n_centers();
  fill_csr_parallel(n, ws_.half_offsets, ws_.half_list, ws_,
                    [&](std::size_t i, std::vector<int>& out) {
                      for (int idx = offsets_[i]; idx < offsets_[i + 1]; ++idx) {
                        const int j = list_[static_cast<std::size_t>(idx)];
                        if (static_cast<std::size_t>(j) > i) out.push_back(j);
                      }
                    });
  offsets_.swap(ws_.half_offsets);
  list_.swap(ws_.half_list);
  half_ = true;
  NeighborMetrics::get().workspace_bytes.set(static_cast<double>(workspace_bytes()));
}

void NeighborList::build(const Box& box, const std::vector<Vec3>& pos, std::size_t n_centers,
                         bool periodic) {
  // Rebuild count + duration feed the observability layer (the paper's step
  // profiles break neighbor maintenance out as its own bar); recorded via
  // RAII so the brute-force early-exit below is covered too.
  struct BuildRecord {
    WallTimer t;
    ~BuildRecord() {
      NeighborMetrics& m = NeighborMetrics::get();
      m.builds.inc();
      m.build_seconds.observe(t.seconds());
    }
  } build_record;
  obs::TraceSpan span("neighbor.build", "neighbor");
  half_ = false;
  if (n_centers == SIZE_MAX) n_centers = pos.size();
  DP_CHECK(n_centers <= pos.size());
  DP_CHECK_MSG(pos.size() <= static_cast<std::size_t>(std::numeric_limits<int>::max()),
               "atom count exceeds the int neighbor-index range");
  periodic_ = periodic;
  n_atoms_at_build_ = pos.size();
  pos_at_build_.assign(pos.begin(), pos.begin() + static_cast<std::ptrdiff_t>(n_centers));

  const double cut = build_cutoff();
  const Vec3 L = box.lengths();
  const int nx = std::max(1, static_cast<int>(L.x / cut));
  const int ny = std::max(1, static_cast<int>(L.y / cut));
  const int nz = std::max(1, static_cast<int>(L.z / cut));

  // The 27-stencil walk needs >= 3 cells per periodic dimension to avoid
  // visiting the same cell twice; small boxes use the quadratic fallback.
  if ((periodic && (nx < 3 || ny < 3 || nz < 3)) || (!periodic && (nx * ny * nz < 8))) {
    build_brute(box, pos, n_centers, periodic);
    return;
  }

  CellGrid grid{nx, ny, nz, L.x / nx, L.y / ny, L.z / nz};
  const int ncells = nx * ny * nz;

  NeighborMetrics& metrics = NeighborMetrics::get();
  {
    WallTimer bin_timer;
    bin_atoms_parallel(box, pos, grid, ncells, periodic, ws_);
    metrics.bin_seconds.observe(bin_timer.seconds());
  }

  const double cut2 = cut * cut;
  WallTimer walk_timer;
  fill_csr_parallel(
      n_centers, offsets_, list_, ws_, [&](std::size_t i, std::vector<int>& out) {
        const Vec3 ri = pos[i];
        const int ci = ws_.atom_cell[i];
        const int ix = ci / (ny * nz), iy = (ci / nz) % ny, iz = ci % nz;
        for (int dx = -1; dx <= 1; ++dx)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dz = -1; dz <= 1; ++dz) {
              int jx = ix + dx, jy = iy + dy, jz = iz + dz;
              if (periodic) {
                jx = (jx + nx) % nx;
                jy = (jy + ny) % ny;
                jz = (jz + nz) % nz;
              } else if (jx < 0 || jy < 0 || jz < 0 || jx >= nx || jy >= ny || jz >= nz) {
                continue;
              }
              const auto cj = static_cast<std::size_t>((jx * ny + jy) * nz + jz);
              for (int s = ws_.cell_start[cj]; s < ws_.cell_start[cj + 1]; ++s) {
                const int j = ws_.cell_atoms[static_cast<std::size_t>(s)];
                if (static_cast<std::size_t>(j) == i) continue;
                Vec3 d = pos[static_cast<std::size_t>(j)] - ri;
                if (periodic) d = box.min_image(d);
                if (norm2(d) < cut2) out.push_back(j);
              }
            }
      });
  metrics.walk_seconds.observe(walk_timer.seconds());
  metrics.workspace_bytes.set(static_cast<double>(workspace_bytes()));
}

void NeighborList::build_brute(const Box& box, const std::vector<Vec3>& pos,
                               std::size_t n_centers, bool periodic) {
  const double cut2 = build_cutoff() * build_cutoff();
  const std::size_t n_pos = pos.size();
  NeighborMetrics& metrics = NeighborMetrics::get();
  WallTimer walk_timer;
  fill_csr_parallel(n_centers, offsets_, list_, ws_,
                    [&](std::size_t i, std::vector<int>& out) {
                      for (std::size_t j = 0; j < n_pos; ++j) {
                        if (j == i) continue;
                        Vec3 d = pos[j] - pos[i];
                        if (periodic) d = box.min_image(d);
                        if (norm2(d) < cut2) out.push_back(static_cast<int>(j));
                      }
                    });
  metrics.walk_seconds.observe(walk_timer.seconds());
  metrics.workspace_bytes.set(static_cast<double>(workspace_bytes()));
}

std::size_t NeighborList::max_neighbors() const {
  std::size_t m = 0;
  for (std::size_t i = 0; i + 1 < offsets_.size(); ++i)
    m = std::max(m, static_cast<std::size_t>(offsets_[i + 1] - offsets_[i]));
  return m;
}

double NeighborList::mean_neighbors() const {
  const std::size_t n = n_centers();
  return n == 0 ? 0.0 : static_cast<double>(list_.size()) / static_cast<double>(n);
}

bool NeighborList::needs_rebuild(const Box& box, const std::vector<Vec3>& pos,
                                 std::size_t n_check) const {
  // Staleness guard: any change in the total atom count (locals + ghosts)
  // invalidates the list outright. Only center positions are retained, so
  // the displacement scan covers at most the build's center prefix — the
  // only part this predicate ever consulted.
  if (pos.size() != n_atoms_at_build_) return true;
  const std::size_t n = std::min(n_check, pos_at_build_.size());
  const double limit2 = 0.25 * skin_ * skin_;
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 d = pos[i] - pos_at_build_[i];
    if (periodic_) d = box.min_image(d);
    if (norm2(d) > limit2) return true;
  }
  return false;
}

std::vector<std::vector<int>> brute_force_neighbors(const Box& box,
                                                    const std::vector<Vec3>& pos, double cutoff,
                                                    std::size_t n_centers, bool periodic) {
  if (n_centers == SIZE_MAX) n_centers = pos.size();
  const double cut2 = cutoff * cutoff;
  std::vector<std::vector<int>> out(n_centers);
  for (std::size_t i = 0; i < n_centers; ++i)
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if (j == i) continue;
      Vec3 d = pos[j] - pos[i];
      if (periodic) d = box.min_image(d);
      if (norm2(d) < cut2) out[i].push_back(static_cast<int>(j));
    }
  return out;
}

}  // namespace dp::md
