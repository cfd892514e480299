#include "parallel/halo.hpp"

#include <algorithm>
#include <cmath>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "parallel/minimpi.hpp"
#include "obs/trace.hpp"

namespace dp::par {

namespace {
/// Process-wide halo traffic totals (summed over ranks; the per-rank view
/// lives in the HaloExchange instance counters).
///
/// Thread-safety: each HaloExchange instance is owned by exactly one rank
/// thread — instance state (stages_, byte counters) is never shared. The
/// only cross-rank state here are these two metrics Counters, whose inc()
/// is a relaxed atomic add, and the function-local static that creates them
/// (guarded by C++ magic-statics). Rank threads otherwise communicate only
/// through minimpi send/recv, which supplies the happens-before for the
/// exchanged payloads (see minimpi.cpp).
struct HaloMetrics {
  obs::Counter& bytes = obs::MetricsRegistry::instance().counter("halo.bytes_sent");
  obs::Counter& messages = obs::MetricsRegistry::instance().counter("halo.messages");
  static HaloMetrics& get() {
    static HaloMetrics m;
    return m;
  }
};
}  // namespace

void HaloExchange::post_send(Communicator& comm, int dest, int tag,
                             const std::vector<double>& payload) {
  HaloMetrics& metrics = HaloMetrics::get();
  comm.isend_vec(dest, tag, payload);  // buffered: the Request is born complete
  bytes_sent_ += payload.size() * sizeof(double);
  ++messages_sent_;
  metrics.bytes.inc(payload.size() * sizeof(double));
  metrics.messages.inc();
}

std::vector<double> HaloExchange::wait_recv(Communicator& comm, int src, int tag) {
  WallTimer wait;
  auto incoming = comm.recv_vec<double>(src, tag);
  const double waited = wait.seconds();
  wait_seconds_ += waited;
  TimerRegistry::instance().add("halo.wait", waited);
  return incoming;
}

std::vector<double> HaloExchange::send_recv(Communicator& comm, int dest, int src, int tag,
                                            const std::vector<double>& payload) {
  post_send(comm, dest, tag, payload);
  return wait_recv(comm, src, tag);
}

std::vector<double> HaloExchange::pack_positions(const Stage& st, const md::Atoms& atoms) const {
  std::vector<double> payload;
  payload.reserve(3 * st.send_idx.size());
  for (int a : st.send_idx) {
    const Vec3 p = atoms.pos[static_cast<std::size_t>(a)] + st.shift;
    payload.push_back(p.x);
    payload.push_back(p.y);
    payload.push_back(p.z);
  }
  return payload;
}

std::vector<double> HaloExchange::pack_ghost_forces(const Stage& st,
                                                    const md::Atoms& atoms) const {
  std::vector<double> payload;
  payload.reserve(3 * st.recv_count);
  for (std::size_t k = 0; k < st.recv_count; ++k) {
    const Vec3& f = atoms.force[st.recv_begin + k];
    payload.push_back(f.x);
    payload.push_back(f.y);
    payload.push_back(f.z);
  }
  return payload;
}

namespace {
void check_halo_fits(const Decomp& decomp, double halo_width) {
  DP_CHECK_MSG(halo_width <= decomp.min_extent(),
               "halo width " << halo_width << " exceeds sub-domain extent "
                             << decomp.min_extent() << " — use fewer ranks");
}
}  // namespace

HaloExchange::HaloExchange(const Decomp& decomp, int rank, double halo_width)
    : decomp_(decomp), rank_(rank), halo_(halo_width) {
  check_halo_fits(decomp, halo_width);
}

void HaloExchange::exchange_ghosts(Communicator& comm, md::Atoms& atoms) {
  ScopedTimer timer("halo.exchange", "halo");
  check_halo_fits(decomp_, halo_);  // a shrinking barostat box may break it
  n_local_ = atoms.size();
  stages_.clear();
  const auto coords = decomp_.coords_of(rank_);
  const Vec3 L = decomp_.box().lengths();
  const Vec3 lo = decomp_.lo(rank_), hi = decomp_.hi(rank_);

  int tag = 0;
  for (int dim = 0; dim < 3; ++dim) {
    // Only atoms present before this dimension's pair of stages are
    // candidates: ghosts received in the +d stage must not bounce back in
    // the -d stage (they belong to that very neighbor).
    const std::size_t candidates = atoms.size();
    for (int dir : {+1, -1}) {
      Stage st;
      st.tag = tag++;
      st.send_to = decomp_.neighbor(rank_, dim, dir);
      st.recv_from = decomp_.neighbor(rank_, dim, -dir);
      const int n_grid = decomp_.grid()[static_cast<std::size_t>(dim)];
      const bool crossing = (dir > 0) ? (coords[static_cast<std::size_t>(dim)] == n_grid - 1)
                                      : (coords[static_cast<std::size_t>(dim)] == 0);
      st.shift = {};
      if (crossing) st.shift[static_cast<std::size_t>(dim)] = (dir > 0) ? -L[static_cast<std::size_t>(dim)] : L[static_cast<std::size_t>(dim)];

      // Slab selection over everything currently held (locals + prior
      // ghosts): that is what propagates edge/corner ghosts.
      const double edge = (dir > 0) ? hi[static_cast<std::size_t>(dim)] - halo_
                                    : lo[static_cast<std::size_t>(dim)] + halo_;
      std::vector<double> payload;
      for (std::size_t a = 0; a < candidates; ++a) {
        const double c = atoms.pos[a][static_cast<std::size_t>(dim)];
        const bool in_slab = (dir > 0) ? (c >= edge) : (c < edge);
        if (!in_slab) continue;
        st.send_idx.push_back(static_cast<int>(a));
        const Vec3 p = atoms.pos[a] + st.shift;
        payload.push_back(p.x);
        payload.push_back(p.y);
        payload.push_back(p.z);
        payload.push_back(static_cast<double>(atoms.type[a]));
      }
      const auto incoming = send_recv(comm, st.send_to, st.recv_from, st.tag, payload);
      DP_CHECK(incoming.size() % 4 == 0);
      st.recv_begin = atoms.size();
      st.recv_count = incoming.size() / 4;
      for (std::size_t k = 0; k < st.recv_count; ++k) {
        atoms.pos.push_back({incoming[4 * k], incoming[4 * k + 1], incoming[4 * k + 2]});
        atoms.vel.push_back({});
        atoms.force.push_back({});
        atoms.type.push_back(static_cast<int>(incoming[4 * k + 3]));
      }
      stages_.push_back(std::move(st));
    }
  }
  n_ghost_ = atoms.size() - n_local_;
}

void HaloExchange::update_ghost_positions(Communicator& comm, md::Atoms& atoms) {
  ScopedTimer timer("halo.update", "halo");
  forward_along_plan(
      comm, 200, 3, [&](const Stage& st) { return pack_positions(st, atoms); },
      [&](std::size_t slot, const double* v) { atoms.pos[slot] = {v[0], v[1], v[2]}; });
}

void HaloExchange::forward(Communicator& comm, std::vector<double>& values) {
  ScopedTimer timer("halo.forward", "halo");
  DP_CHECK(values.size() == n_local_ + n_ghost_);
  forward_along_plan(
      comm, 800, 1,
      [&](const Stage& st) {
        std::vector<double> payload;
        payload.reserve(st.send_idx.size());
        for (int a : st.send_idx) payload.push_back(values[static_cast<std::size_t>(a)]);
        return payload;
      },
      [&](std::size_t slot, const double* v) { values[slot] = v[0]; });
}

void HaloExchange::reduce_forces(Communicator& comm, md::Atoms& atoms) {
  ScopedTimer timer("halo.reduce", "halo");
  // The plan walked backwards, one dimension at a time (z, y, x). Every
  // fold that can write into a dimension's ghost ranges comes from a later
  // dimension (earlier send_idx never reach them), so both of its payloads
  // are final on entry and both sends are posted before waiting on either.
  // The folds run in reversed stage order, so the reduction is bitwise
  // reproducible.
  for (std::size_t r = 0; r < stages_.size(); r += 2) {
    for (std::size_t t : {r, r + 1}) {
      const Stage& st = stages_[stages_.size() - 1 - t];
      post_send(comm, st.recv_from, 400 + st.tag, pack_ghost_forces(st, atoms));
    }
    for (std::size_t t : {r, r + 1}) {
      const Stage& st = stages_[stages_.size() - 1 - t];
      const auto incoming = wait_recv(comm, st.send_to, 400 + st.tag);
      DP_CHECK(incoming.size() == 3 * st.send_idx.size());
      // Fold the returned ghost forces into the atoms we sent out.
      for (std::size_t k = 0; k < st.send_idx.size(); ++k) {
        atoms.force[static_cast<std::size_t>(st.send_idx[k])] +=
            Vec3{incoming[3 * k], incoming[3 * k + 1], incoming[3 * k + 2]};
      }
    }
  }
}

void migrate(Communicator& comm, const md::Box& box, const Decomp& decomp, int rank,
             md::Atoms& atoms, std::vector<std::int64_t>* ids, int rebuild_every) {
  ScopedTimer timer("halo.migrate", "halo");
  // Wrap everything first so coordinate comparisons are global.
  for (auto& p : atoms.pos) p = box.wrap(p);
  const auto coords = decomp.coords_of(rank);
  const auto grid = decomp.grid();

  int tag = 600;
  for (int dim = 0; dim < 3; ++dim) {
    const int n_grid = grid[static_cast<std::size_t>(dim)];
    if (n_grid == 1) continue;
    const int my_c = coords[static_cast<std::size_t>(dim)];

    std::vector<double> up, down;
    md::Atoms kept;
    kept.mass_by_type = atoms.mass_by_type;
    std::vector<std::int64_t> kept_ids;
    auto pack = [&](std::vector<double>& buf, std::size_t a) {
      const Vec3& p = atoms.pos[a];
      const Vec3& v = atoms.vel[a];
      buf.insert(buf.end(), {p.x, p.y, p.z, v.x, v.y, v.z,
                             static_cast<double>(atoms.type[a]),
                             ids ? static_cast<double>((*ids)[a]) : 0.0});
    };
    for (std::size_t a = 0; a < atoms.size(); ++a) {
      // Ownership must agree with Decomp::owner_of (the post-condition below
      // asks it), so route through the same coord_of — it honors shifted cuts.
      const int c = decomp.coord_of(dim, atoms.pos[a][static_cast<std::size_t>(dim)]);
      if (c == my_c) {
        kept.pos.push_back(atoms.pos[a]);
        kept.vel.push_back(atoms.vel[a]);
        kept.force.push_back(atoms.force[a]);
        kept.type.push_back(atoms.type[a]);
        if (ids) kept_ids.push_back((*ids)[a]);
      } else {
        // Shortest periodic direction towards the owner.
        const int fwd = ((c - my_c) % n_grid + n_grid) % n_grid;
        pack(fwd <= n_grid / 2 ? up : down, a);
      }
    }
    const int up_rank = decomp.neighbor(rank, dim, +1);
    const int down_rank = decomp.neighbor(rank, dim, -1);
    comm.send_vec(up_rank, tag, up);
    comm.send_vec(down_rank, tag + 1, down);
    for (auto [src, t] : {std::pair{down_rank, tag}, std::pair{up_rank, tag + 1}}) {
      const auto incoming = comm.recv_vec<double>(src, t);
      DP_CHECK(incoming.size() % 8 == 0);
      for (std::size_t k = 0; k < incoming.size() / 8; ++k) {
        const double* rec = incoming.data() + 8 * k;
        kept.pos.push_back({rec[0], rec[1], rec[2]});
        kept.vel.push_back({rec[3], rec[4], rec[5]});
        kept.force.push_back({});
        kept.type.push_back(static_cast<int>(rec[6]));
        if (ids) kept_ids.push_back(static_cast<std::int64_t>(rec[7]));
      }
    }
    atoms = std::move(kept);
    if (ids) *ids = std::move(kept_ids);
    tag += 2;
  }

  // Post-condition: one hop per dimension was enough. When it wasn't, say
  // which atom, how far past this rank's slab it sits, and what rebuild
  // period produced the situation — a finite overshoot on a fast atom means
  // `rebuild_every` (migration cadence) is mis-tuned for the dynamics, while
  // a wild coordinate points at real corruption (NaN forces, broken box).
  const Vec3 my_lo = decomp.lo(rank);
  const Vec3 my_hi = decomp.hi(rank);
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    const Vec3& p = atoms.pos[a];
    const int owner = decomp.owner_of(p);
    if (owner == rank) continue;
    double overshoot = 0.0;
    for (std::size_t d = 0; d < 3; ++d) {
      if (p[d] < my_lo[d]) overshoot = std::max(overshoot, my_lo[d] - p[d]);
      if (p[d] >= my_hi[d]) overshoot = std::max(overshoot, p[d] - my_hi[d]);
    }
    DP_CHECK_MSG(false, "migrate: atom id "
                            << (ids ? (*ids)[a] : static_cast<std::int64_t>(a))
                            << " at (" << p.x << ", " << p.y << ", " << p.z
                            << ") travelled more than one sub-domain in one rebuild "
                               "interval (owner rank " << owner << ", holding rank "
                            << rank << ", " << overshoot
                            << " length units past the local slab, rebuild period "
                            << rebuild_every
                            << " steps). If the coordinate looks physical, lower "
                               "rebuild_every (the displacement trigger only guards "
                               "the neighbor skin, not sub-domain hops); if not, "
                               "suspect corrupted forces or box");
  }
}

}  // namespace dp::par
