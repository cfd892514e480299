#include "dp/env_mat.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/team.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dp::core {

namespace {
EnvMatThreadStats& mutable_thread_stats() {
  static thread_local EnvMatThreadStats stats;
  return stats;
}
}  // namespace

const EnvMatThreadStats& env_mat_thread_stats() { return mutable_thread_stats(); }

std::size_t EnvMat::filled_slots() const {
  if (compact()) return block_start.empty() ? 0 : block_start.back();
  std::size_t filled = 0;
  for (int c : count_by_type) filled += static_cast<std::size_t>(c);
  return filled;
}

double EnvMat::padding_fraction() const {
  if (n_atoms == 0 || nm == 0) return 0.0;
  return 1.0 - static_cast<double>(filled_slots()) /
                   (static_cast<double>(n_atoms) * static_cast<double>(nm));
}

std::size_t EnvMat::dense_bytes() const {
  const std::size_t slots = n_atoms * static_cast<std::size_t>(nm);
  return slots * (16 * sizeof(double) + sizeof(int)) +
         n_atoms * static_cast<std::size_t>(ntypes) * sizeof(int);
}

std::size_t EnvMat::compact_bytes() const {
  const std::size_t blocks = n_atoms * static_cast<std::size_t>(ntypes);
  return filled_slots() * (4 * sizeof(double) + sizeof(int)) + blocks * sizeof(int) +
         (blocks + 1) * sizeof(std::size_t);
}

std::size_t EnvMat::storage_bytes() const {
  return rmat.capacity() * sizeof(double) + deriv.capacity() * sizeof(double) +
         slot_atom.capacity() * sizeof(int) +
         count_by_type.capacity() * sizeof(int) + block_start.capacity() * sizeof(std::size_t) +
         type_off.capacity() * sizeof(int);
}

void EnvMat::reset_dense(std::size_t n, const ModelConfig& cfg) {
  layout = EnvMatLayout::Dense;
  n_atoms = n;
  nm = cfg.nm();
  ntypes = cfg.ntypes;
  // The zero fill below is the dense layout's cost, not an accident: padded
  // slots must read as exact zeros (the paper's "redundant zeros").
  rmat.assign(n * static_cast<std::size_t>(nm) * 4, 0.0);
  deriv.assign(n * static_cast<std::size_t>(nm) * 12, 0.0);
  slot_atom.assign(n * static_cast<std::size_t>(nm), -1);
  count_by_type.assign(n * static_cast<std::size_t>(cfg.ntypes), 0);
  type_off.resize(static_cast<std::size_t>(cfg.ntypes) + 1);
  for (int t = 0; t <= cfg.ntypes; ++t)
    type_off[static_cast<std::size_t>(t)] = cfg.type_offset(t);
  overflow = 0;
}

void EnvMat::reset_compact_header(std::size_t n, const ModelConfig& cfg) {
  layout = EnvMatLayout::Compact;
  n_atoms = n;
  nm = cfg.nm();
  ntypes = cfg.ntypes;
  rcut_smth = cfg.rcut_smth;
  rcut = cfg.rcut;
  // No zero fill anywhere: counts are fully rewritten by the count phase and
  // the prefix by the scan; slot arrays are sized later by grow_compact_slots.
  if (deriv.capacity() > 0) AlignedVector<double>().swap(deriv);
  count_by_type.resize(n * static_cast<std::size_t>(cfg.ntypes));
  block_start.resize(n * static_cast<std::size_t>(cfg.ntypes) + 1);
  type_off.resize(static_cast<std::size_t>(cfg.ntypes) + 1);
  for (int t = 0; t <= cfg.ntypes; ++t)
    type_off[static_cast<std::size_t>(t)] = cfg.type_offset(t);
  overflow = 0;
}

void EnvMat::grow_compact_slots(std::size_t total) {
  // Every compact build rewrites all `total` slots, so growth may discard:
  // no stale copy, and no O(slots) zeroing once capacity suffices.
  resize_discard(rmat, total * 4);
  resize_discard(slot_atom, total);
}

void EnvMatWorkspace::Scratch::ensure(std::size_t max_nbrs, int ntypes) {
  if (key.size() < max_nbrs) {
    d.resize(max_nbrs);
    slot_d.resize(3 * max_nbrs);
    key.resize(max_nbrs);
    sorted.resize(max_nbrs);
    bucket.resize(max_nbrs + 1);
  }
  const auto nt = static_cast<std::size_t>(ntypes);
  if (seen.size() < nt) seen.resize(nt);
}

std::size_t EnvMatWorkspace::Scratch::bytes() const {
  return d.capacity() * sizeof(Vec3) + slot_d.capacity() * sizeof(double) +
         (key.capacity() + sorted.capacity()) * sizeof(EnvSortKey) +
         bucket.capacity() * sizeof(std::uint32_t) + seen.capacity() * sizeof(int);
}

void EnvMatWorkspace::ensure_threads(int team_size) {
  if (tl.size() < static_cast<std::size_t>(team_size))
    tl.resize(static_cast<std::size_t>(team_size));
}

std::size_t EnvMatWorkspace::bytes() const {
  std::size_t b = tl.capacity() * sizeof(Scratch);
  for (const Scratch& s : tl) b += s.bytes();
  return b;
}

namespace {

/// r^2 = |d|^2 by the sequence simd::EnvRowsFn forms it with, so a slot's
/// sort key, its cutoff test and its rows all see the same r^2.
inline double env_r2(const Vec3& d) { return std::fma(d.z, d.z, std::fma(d.x, d.x, d.y * d.y)); }

/// Reference operator, written the way the original ProdEnvMatA was: fresh
/// per-atom containers, candidate distances recomputed from positions at
/// fill time instead of being carried through the sort, and each slot's
/// rows formed and stored on their own. Emits the dense padded layout (the
/// caller has already reset it).
void build_dense_reference(const ModelConfig& cfg, const md::Box& box, const md::Atoms& atoms,
                           const md::NeighborList& nlist, bool periodic, EnvMat& out) {
  const std::size_t n = out.n_atoms;
  const int nm = out.nm;
  const simd::EnvRowsFn env_rows = simd::pick_env_rows(simd::active());
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 ri = atoms.pos[i];
    const double rc2 = cfg.rcut * cfg.rcut;
    std::vector<std::vector<std::pair<double, int>>> groups(
        static_cast<std::size_t>(cfg.ntypes));
    for (int j : nlist.neighbors(i)) {
      Vec3 d = atoms.pos[static_cast<std::size_t>(j)] - ri;
      if (periodic) d = box.min_image(d);
      const double r2 = env_r2(d);
      if (r2 < rc2 && r2 > 0.0)
        groups[static_cast<std::size_t>(atoms.type[static_cast<std::size_t>(j)])]
            .emplace_back(std::sqrt(r2), j);
    }
    double* rmat_i = out.rmat.data() + i * static_cast<std::size_t>(nm) * 4;
    double* deriv_i = out.deriv.data() + i * static_cast<std::size_t>(nm) * 12;
    int* slots_i = out.slot_atom.data() + i * static_cast<std::size_t>(nm);
    for (int t = 0; t < cfg.ntypes; ++t) {
      auto& group = groups[static_cast<std::size_t>(t)];
      std::sort(group.begin(), group.end());
      const int cap = cfg.sel[static_cast<std::size_t>(t)];
      int fill = 0;
      for (const auto& [r, j] : group) {
        if (fill >= cap) {
          ++out.overflow;
          continue;
        }
        // Recompute the displacement (the redundancy the optimized
        // operator removes).
        Vec3 d = atoms.pos[static_cast<std::size_t>(j)] - ri;
        if (periodic) d = box.min_image(d);
        const int slot = cfg.type_offset(t) + fill;
        const double dd[3] = {d.x, d.y, d.z};
        env_rows(dd, 1, cfg.rcut_smth, cfg.rcut, rmat_i + 4 * slot, deriv_i + 12 * slot);
        slots_i[slot] = j;
        ++fill;
      }
      out.count_by_type[i * static_cast<std::size_t>(cfg.ntypes) + static_cast<std::size_t>(t)] =
          fill;
    }
  }
}

/// Displacement d = r_j - r_i (minimum image when periodic) and r^2 = |d|^2
/// of one listed neighbor; true when j lies inside the cutoff. Both passes
/// of the compact build decide through this one routine, so the fill pass
/// meets exactly the candidates the count pass counted.
inline bool env_candidate(const md::Box& box, const md::Atoms& atoms, const Vec3& ri, int j,
                          bool periodic, double rc2, Vec3& d, double& r2) {
  d = atoms.pos[static_cast<std::size_t>(j)] - ri;
  if (periodic) d = box.min_image(d);
  r2 = env_r2(d);
  return r2 < rc2 && r2 > 0.0;
}

inline bool key_less(const EnvSortKey& a, const EnvSortKey& b) {
  return a.r2 != b.r2 ? a.r2 < b.r2 : a.atom < b.atom;
}

/// Orders sc.key[0, n) into sc.sorted[0, n) by (r2, atom): a counting pass
/// over n buckets of equal r^2 width, then an insertion sort. The bucket
/// index is monotone in r^2 (a multiply by a positive constant, truncated),
/// so a key never has to cross a bucket boundary and the insertion sort
/// only reorders the few keys of one bucket — ties included, which a
/// perfect lattice's shells put all into one bucket.
void sort_candidates(EnvMatWorkspace::Scratch& sc, std::size_t n, double rc2) {
  if (n == 0) return;
  const double scale = static_cast<double>(n) / rc2;
  const auto bucket_of = [&](const EnvSortKey& k) {
    const auto b = static_cast<std::size_t>(std::bit_cast<double>(k.r2) * scale);
    return b < n ? b : n - 1;
  };
  std::uint32_t* off = sc.bucket.data();
  std::fill(off, off + n + 1, 0u);
  for (std::size_t k = 0; k < n; ++k) ++off[bucket_of(sc.key[k]) + 1];
  for (std::size_t b = 0; b < n; ++b) off[b + 1] += off[b];
  for (std::size_t k = 0; k < n; ++k) sc.sorted[off[bucket_of(sc.key[k])]++] = sc.key[k];
  for (std::size_t a = 1; a < n; ++a) {
    const EnvSortKey k = sc.sorted[a];
    std::size_t b = a;
    for (; b > 0 && key_less(k, sc.sorted[b - 1]); --b) sc.sorted[b] = sc.sorted[b - 1];
    sc.sorted[b] = k;
  }
}

/// Compact CSR build, parallel over contiguous atom chunks (paper Sec
/// 3.4.2's redundancy removal applied to the operator's OUTPUT, not just its
/// inner loops):
///   * pass A counts each atom's in-cutoff neighbors per type, caps them at
///     sel[] and counts the overflow;
///   * thread 0 scans the counts into block_start and sizes the slot arrays;
///   * pass B gathers one atom's candidates into the thread's scratch, sorts
///     them, writes slot_atom straight into the CSR and the displacements,
///     in slot order, into the scratch, and forms the atom's rmat rows from
///     them in one simd::EnvRowsFn call.
/// Nothing is staged across atoms, and neither a derivative nor a
/// displacement is stored: prod-force recomputes d from the positions.
///
/// Happens-before / determinism argument (see docs/STATIC_ANALYSIS.md):
/// pass A writes disjoint count_by_type rows and thread-private scratch; a
/// barrier orders every count before the thread-0 prefix scan; a second
/// barrier orders the scan (and the slot-array growth) before pass B, whose
/// writes target disjoint [block_start[begin * nt], block_start[end * nt])
/// ranges by chunk contiguity. Slot content and position depend only on
/// per-atom data and the scan, so the output is byte-identical at any
/// thread count.
void build_compact(const ModelConfig& cfg, const md::Box& box, const md::Atoms& atoms,
                   const md::NeighborList& nlist, EnvMat& out, EnvMatWorkspace& ws,
                   bool periodic) {
  const std::size_t n = nlist.n_centers();
  const std::size_t nt = static_cast<std::size_t>(cfg.ntypes);
  const double rc2 = cfg.rcut * cfg.rcut;
  const int team_size = std::max(1, omp_get_max_threads());
  const simd::EnvRowsFn env_rows = simd::pick_env_rows(simd::active());
  ws.ensure_threads(team_size);
  out.reset_compact_header(n, cfg);

  BuildTeam& team = BuildTeam::team();
  auto body = [&](int t, int T) {
    EnvMatWorkspace::Scratch& sc = ws.tl[static_cast<std::size_t>(t)];
    const std::size_t begin = chunk_bound(n, t, T);
    const std::size_t end = chunk_bound(n, t + 1, T);
    sc.overflow = 0;
    sc.mismatched = 0;

    // ---- Pass A: capped per-type counts --------------------------------
    std::size_t max_nbrs = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3 ri = atoms.pos[i];
      int* count = out.count_by_type.data() + i * nt;
      std::fill(count, count + nt, 0);
      for (int j : nlist.neighbors(i)) {
        Vec3 d;
        double r2;
        if (env_candidate(box, atoms, ri, j, periodic, rc2, d, r2))
          ++count[static_cast<std::size_t>(atoms.type[static_cast<std::size_t>(j)])];
      }
      for (std::size_t ty = 0; ty < nt; ++ty) {
        const int capped = std::min(count[ty], cfg.sel[ty]);
        sc.overflow += static_cast<std::size_t>(count[ty] - capped);
        count[ty] = capped;
      }
      max_nbrs = std::max(max_nbrs, nlist.neighbors(i).size());
    }
    sc.ensure(max_nbrs, cfg.ntypes);

    team.barrier();
    if (t == 0) {
      std::size_t run = 0;
      for (std::size_t idx = 0; idx < n * nt; ++idx) {
        out.block_start[idx] = run;
        run += static_cast<std::size_t>(out.count_by_type[idx]);
      }
      out.block_start[n * nt] = run;
      out.grow_compact_slots(run);
    }
    team.barrier();  // scan + growth visible to every fill below

    // ---- Pass B: gather, sort, fill in place ---------------------------
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3 ri = atoms.pos[i];
      std::size_t nc = 0;
      for (int j : nlist.neighbors(i)) {
        double r2;
        if (!env_candidate(box, atoms, ri, j, periodic, rc2, sc.d[nc], r2)) continue;
        sc.key[nc] = {std::bit_cast<std::uint64_t>(r2), j, static_cast<std::uint32_t>(nc)};
        ++nc;
      }
      sort_candidates(sc, nc, rc2);

      // The first count[ty] candidates of each type, nearest first, land in
      // the type's block — exactly the dense reference's insertion order.
      const std::size_t* start = out.block_start.data() + i * nt;
      const int* count = out.count_by_type.data() + i * nt;
      // The atom's blocks are one contiguous slot range.
      const std::size_t s0 = start[0], s1 = start[nt];
      std::fill(sc.seen.begin(), sc.seen.begin() + static_cast<std::ptrdiff_t>(nt), 0);
      for (std::size_t k = 0; k < nc; ++k) {
        const EnvSortKey& key = sc.sorted[k];
        const auto ty =
            static_cast<std::size_t>(atoms.type[static_cast<std::size_t>(key.atom)]);
        const int rank = sc.seen[ty]++;
        if (rank >= count[ty]) continue;  // quota spent: the farthest are dropped
        const std::size_t s = start[ty] + static_cast<std::size_t>(rank);
        const Vec3& d = sc.d[key.idx];
        double* slot_d = sc.slot_d.data() + 3 * (s - s0);
        slot_d[0] = d.x;
        slot_d[1] = d.y;
        slot_d[2] = d.z;
        out.slot_atom[s] = key.atom;
      }
      env_rows(sc.slot_d.data(), s1 - s0, cfg.rcut_smth, cfg.rcut, out.rmat.data() + 4 * s0,
               nullptr);
      // A block filled short of pass A's count would leave slots unwritten.
      for (std::size_t ty = 0; ty < nt; ++ty)
        if (std::min(sc.seen[ty], cfg.sel[ty]) != count[ty]) ++sc.mismatched;
    }
  };
  team.run(team_size, BodyRef(body));

  std::size_t overflow_total = 0;
  std::size_t mismatched = 0;
  for (int t = 0; t < team_size; ++t) {
    overflow_total += ws.tl[static_cast<std::size_t>(t)].overflow;
    mismatched += ws.tl[static_cast<std::size_t>(t)].mismatched;
  }
  DP_CHECK_MSG(mismatched == 0, "env-mat fill pass disagrees with its count pass on "
                                    << mismatched << " blocks");
  out.overflow = overflow_total;
}

}  // namespace

void build_env_mat(const ModelConfig& cfg, const md::Box& box, const md::Atoms& atoms,
                   const md::NeighborList& nlist, EnvMat& out, EnvMatWorkspace& ws,
                   EnvMatKernel kernel, bool periodic) {
  // Counters land in the registry via RAII so both kernel paths are covered;
  // overflow > 0 flags sel[] too small for the density, the paper's main
  // correctness hazard at scale.
  struct BuildRecord {
    const EnvMat& env;
    ~BuildRecord() {
      static obs::Counter& builds = obs::MetricsRegistry::instance().counter("env_mat.builds");
      static obs::Counter& overflow =
          obs::MetricsRegistry::instance().counter("env_mat.overflow");
      static obs::Gauge& dense_gauge =
          obs::MetricsRegistry::instance().gauge("env_mat.dense_bytes");
      static obs::Gauge& compact_gauge =
          obs::MetricsRegistry::instance().gauge("env_mat.compact_bytes");
      builds.inc();
      if (env.overflow > 0) overflow.inc(env.overflow);
      // Both gauges every build: what each layout costs for THIS system,
      // whichever one was materialized — the Fig 3 memory comparison.
      EnvMatThreadStats& stats = mutable_thread_stats();
      stats.dense_bytes = env.dense_bytes();
      stats.compact_bytes = env.compact_bytes();
      dense_gauge.set(static_cast<double>(stats.dense_bytes));
      compact_gauge.set(static_cast<double>(stats.compact_bytes));
    }
  } build_record{out};
  obs::TraceSpan span("env_mat.build", "dp");
  cfg.validate();
  const std::size_t n = nlist.n_centers();

  if (kernel == EnvMatKernel::Baseline) {
    out.reset_dense(n, cfg);
    build_dense_reference(cfg, box, atoms, nlist, periodic, out);
    return;
  }
  build_compact(cfg, box, atoms, nlist, out, ws, periodic);
}

}  // namespace dp::core
