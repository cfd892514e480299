#include "dp/prod_force.hpp"

#include <omp.h>

#include <algorithm>
#include <cstring>

#include "common/simd.hpp"
#include "common/team.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace dp::core {

void prod_force_virial(const EnvMat& env, const double* g_rmat, const md::Box& box,
                       const md::Atoms& atoms, bool periodic, std::vector<Vec3>& forces,
                       Mat3& virial, ProdForceWorkspace& ws) {
  WallTimer timer;
  const std::size_t n = env.n_atoms;
  const std::size_t n_total = forces.size();
  ws.lane_force.resize(static_cast<std::size_t>(kProdForceLanes) * n_total * 3);

  const int team_size = std::max(1, omp_get_max_threads());
  // SIMD level resolved once per call, outside the team region: every lane
  // walks its slots with the same kernel regardless of thread count.
  const simd::PairGradientsFn pair_gradients = simd::pick_pair_gradients(simd::active());
  const simd::PairGradientsDiffFn pair_gradients_diff =
      simd::pick_pair_gradients_diff(simd::active());
  BuildTeam& team = BuildTeam::team();
  auto body = [&](int t, int T) {
    // ---- Phase 1: each thread runs a contiguous range of LANES. A lane
    // walks a fixed contiguous range of centers (chunked by kProdForceLanes,
    // not by T): the center's own force is written directly (lanes partition
    // centers, so those writes are disjoint), neighbor scatters land in the
    // lane-private buffer, and the lane's virial accumulates separately.
    const int lane_begin = static_cast<int>(chunk_bound(kProdForceLanes, t, T));
    const int lane_end = static_cast<int>(chunk_bound(kProdForceLanes, t + 1, T));
    for (int lane = lane_begin; lane < lane_end; ++lane) {
      double* buf = ws.lane_force.data() + static_cast<std::size_t>(lane) * n_total * 3;
      std::memset(buf, 0, n_total * 3 * sizeof(double));
      Mat3 w{};
      const std::size_t begin = chunk_bound(n, lane, kProdForceLanes);
      const std::size_t end = chunk_bound(n, lane + 1, kProdForceLanes);
      for (std::size_t i = begin; i < end; ++i) {
        const Vec3 ri = atoms.pos[i];
        Vec3 fi{};
        for (int ty = 0; ty < env.ntypes; ++ty) {
          const std::size_t s0 = env.block_begin(i, ty);
          const int cnt = env.count(i, ty);
          for (int k0 = 0; k0 < cnt; k0 += simd::kPairChunk) {
            const int nk = std::min(simd::kPairChunk, cnt - k0);
            const std::size_t sb = s0 + static_cast<std::size_t>(k0);
            // One read of each slot's atom stages its index and its
            // displacement d = r_j - r_i (minimum image when periodic), as
            // x, y and z streams: the expressions the fill formed d with, on
            // positions that have not moved since, so the bits the rows
            // were built from.
            int jbuf[simd::kPairChunk];
            alignas(64) double dbuf[3 * simd::kPairChunk];
            double* dx = dbuf;
            double* dy = dbuf + nk;
            double* dz = dbuf + 2 * nk;
            for (int k = 0; k < nk; ++k) {
              const int j = env.atom_of(sb + static_cast<std::size_t>(k));
              Vec3 d = atoms.pos[static_cast<std::size_t>(j)] - ri;
              if (periodic) d = box.min_image(d);
              jbuf[k] = j;
              dx[k] = d.x;
              dy[k] = d.y;
              dz[k] = d.z;
            }
            double fbuf[3 * simd::kPairChunk];
            if (env.compact())
              pair_gradients_diff(g_rmat + sb * 4, dbuf, nk, env.rcut_smth, env.rcut, fbuf);
            else
              pair_gradients(g_rmat + sb * 4, env.deriv_at(sb), nk, fbuf);
            for (int k = 0; k < nk; ++k) {
              const auto j = static_cast<std::size_t>(jbuf[k]);
              const Vec3 f{fbuf[3 * k + 0], fbuf[3 * k + 1], fbuf[3 * k + 2]};
              // E depends on d = r_j - r_i:  F_i = +dE/dd, F_j = -dE/dd.
              fi += f;
              buf[j * 3 + 0] -= f.x;
              buf[j * 3 + 1] -= f.y;
              buf[j * 3 + 2] -= f.z;
              const Vec3 d{dx[k], dy[k], dz[k]};
              // W += r_ij (x) f_ij with r_ij = r_i - r_j = -d, f_ij = +f on i.
              w += outer(d, f) * (-1.0);
            }
          }
        }
        forces[i] += fi;
      }
      ws.lane_virial[static_cast<std::size_t>(lane)] = w;
    }
    team.barrier();  // every lane buffer complete before any fold reads it
    // ---- Phase 2: threads partition ATOMS; each atom's force folds the 16
    // lane buffers in ascending lane order — an order independent of T.
    const std::size_t a_begin = chunk_bound(n_total, t, T);
    const std::size_t a_end = chunk_bound(n_total, t + 1, T);
    for (std::size_t a = a_begin; a < a_end; ++a) {
      double fx = 0.0, fy = 0.0, fz = 0.0;
      for (int lane = 0; lane < kProdForceLanes; ++lane) {
        const double* buf = ws.lane_force.data() + static_cast<std::size_t>(lane) * n_total * 3;
        fx += buf[a * 3 + 0];
        fy += buf[a * 3 + 1];
        fz += buf[a * 3 + 2];
      }
      forces[a] += Vec3{fx, fy, fz};
    }
  };
  team.run(team_size, BodyRef(body));

  // Lane virials fold on the master, again in ascending lane order.
  for (int lane = 0; lane < kProdForceLanes; ++lane)
    virial += ws.lane_virial[static_cast<std::size_t>(lane)];

  static obs::Histogram& seconds =
      obs::MetricsRegistry::instance().histogram("prod_force.seconds");
  seconds.observe(timer.seconds());
}

}  // namespace dp::core
