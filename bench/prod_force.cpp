// Environment-matrix layout + force-scatter benchmark: dense padded vs
// compact CSR across a slot-reservation (padding) sweep, env build and
// prod_force time vs thread count, and the steady-state allocation check.
//
// This is the memory story of the compact rewrite: at copper-like
// reservations (sel far above the ambient neighbor count) the dense layout
// is mostly the paper's "redundant zeros", and the CSR stores less than
// half the bytes while the prod scatter walks exactly the same filled
// slots. Acceptance: compact/dense bytes <= 0.5 on the padded rows,
// alloc-free = yes everywhere.
//
// Machine note: the harness host has 4 cores, so the 8-thread rows
// oversubscribe it; the lane-deterministic fold guarantees the FORCES are
// byte-identical at every row regardless.
#include <omp.h>

#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "nn/embedding_net.hpp"
#include "obs/metrics.hpp"
#include "tab/table.hpp"

namespace {

using dp::core::EnvMat;
using dp::core::EnvMatKernel;

struct Point {
  double env_seconds = 0.0;
  double prod_seconds = 0.0;
  std::size_t layout_bytes = 0;  ///< what this layout stores for the system
  bool alloc_free = false;
};

Point time_kernel(const dp::core::ModelConfig& cfg, const dp::md::Configuration& sys,
                  const dp::md::NeighborList& nlist, EnvMatKernel kernel, int threads) {
  omp_set_num_threads(threads);
  EnvMat env;
  dp::core::EnvMatWorkspace env_ws;
  dp::core::ProdForceWorkspace prod_ws;
  // Warm-up grows every grow-only buffer to its plateau for this frame.
  for (int i = 0; i < 3; ++i)
    dp::core::build_env_mat(cfg, sys.box, sys.atoms, nlist, env, env_ws, kernel);

  // Synthetic per-slot gradients: the scatter's cost depends only on the
  // slot walk, not on where the gradients came from.
  dp::AlignedVector<double> g_rmat(env.stored_slots() * 4);
  dp::Rng rng(99);
  for (double& v : g_rmat) v = rng.uniform(-1.0, 1.0);
  std::vector<dp::Vec3> forces(sys.atoms.size());
  dp::Mat3 virial{};
  prod_force_virial(env, g_rmat.data(), sys.box, sys.atoms, true, forces, virial, prod_ws);

  Point p;
  p.layout_bytes = env.compact() ? env.compact_bytes() : env.dense_bytes();
  const std::size_t plateau = env.storage_bytes() + env_ws.bytes() + prod_ws.bytes();
  p.env_seconds =
      dp::time_per_call([&] { dp::core::build_env_mat(cfg, sys.box, sys.atoms, nlist, env,
                                                      env_ws, kernel); },
                        /*min_seconds=*/0.08, /*max_iters=*/40, /*repeats=*/3);
  p.prod_seconds = dp::time_per_call(
      [&] {
        for (auto& f : forces) f = {0.0, 0.0, 0.0};
        prod_force_virial(env, g_rmat.data(), sys.box, sys.atoms, true, forces, virial,
                          prod_ws);
      },
      /*min_seconds=*/0.08, /*max_iters=*/40, /*repeats=*/3);
  p.alloc_free = env.storage_bytes() + env_ws.bytes() + prod_ws.bytes() == plateau;
  return p;
}

struct TabPoint {
  double scalar_seconds = 0.0;
  double vector_seconds = 0.0;
};

/// Times the tabulation walk the compressed/fused models run per step —
/// eval_with_deriv_batch over every filled slot run of the compact env
/// matrix — at forced-scalar vs the dispatched SIMD level. Same slot walk,
/// same table, same outputs; only the dispatch differs. The scalar leg
/// (tab_scalar_seconds) times the kernel body at lane width 1 with std::fma:
/// a libm call per fma under the generic CI build, hardware FMA under
/// -march=native.
TabPoint time_tabulation(const EnvMat& env, const dp::tab::TabulatedEmbedding& table) {
  const std::size_t m = table.output_dim();
  const std::size_t n = env.n_atoms;
  dp::AlignedVector<double> g(env.stored_slots() * m);
  dp::AlignedVector<double> dg(env.stored_slots() * m);
  auto walk = [&] {
    std::size_t row = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (int ty = 0; ty < env.ntypes; ++ty) {
        const std::size_t base = env.block_begin(i, ty);
        const int cnt = env.count(i, ty);
        if (cnt <= 0) continue;
        table.eval_with_deriv_batch(env.rmat_at(base), 4, static_cast<std::size_t>(cnt),
                                    g.data() + row * m, dg.data() + row * m, m,
                                    /*streaming=*/true);
        row += static_cast<std::size_t>(cnt);
      }
    }
  };
  const dp::simd::Level native = dp::simd::active();
  TabPoint p;
  dp::simd::force(dp::simd::Level::Scalar);
  p.scalar_seconds = dp::time_per_call(walk, 0.08, 40, 3);
  dp::simd::force(native);
  p.vector_seconds = dp::time_per_call(walk, 0.08, 40, 3);
  return p;
}

}  // namespace

int main() {
  std::printf(
      "Env-matrix layout + force scatter — dense padded vs compact CSR\n"
      "(copper FCC 6x6x6, 864 atoms, rc 8 A; sel sweep varies the padding)\n");
  dp::obs::MetricsRegistry reg;
  const auto sys = dp::md::make_fcc(6, 6, 6, 3.634, 63.546, 0.08, 77);
  dp::md::NeighborList nlist(8.0, 1.0);
  nlist.build(sys.box, sys.atoms.pos);
  // One tabulated embedding at the copper output width, reused across the
  // sel sweep; only the slot-run lengths change underneath it.
  const dp::core::ModelConfig tab_cfg = dp::core::ModelConfig::copper();
  dp::nn::EmbeddingNet tab_net({8, 16, tab_cfg.m()});
  dp::Rng tab_rng(4242);
  tab_net.init_random(tab_rng);
  const dp::tab::TabulatedEmbedding tab_table(tab_net, {0.0, 2.0, 0.001});
  const double lanes = static_cast<double>(dp::simd::lanes());
  std::printf("SIMD dispatch: %s (%zu lanes)\n", dp::simd::name(dp::simd::active()),
              dp::simd::lanes());
  const int thread_counts[] = {1, 2, 4, 8};
  // 160 ~ ambient occupancy (low padding), 300 mid, 500 the paper's copper
  // reservation (~70% padding at ambient density).
  const int sel_values[] = {160, 300, 500};
  for (int sel : sel_values) {
    dp::core::ModelConfig cfg = dp::core::ModelConfig::copper();
    cfg.sel = {sel};
    EnvMat probe;
    dp::core::build_env_mat(cfg, sys.box, sys.atoms, nlist, probe);
    const TabPoint tab = time_tabulation(probe, tab_table);
    std::printf("\nsel = %d  (padding %.0f%%, filled slots %zu)\n", sel,
                100.0 * probe.padding_fraction(), probe.filled_slots());
    std::printf("  tabulation walk (M=%zu): scalar (width-1 body) %.3f ms, %s %.3f ms  "
                "(%.2fx)\n",
                tab_table.output_dim(), 1e3 * tab.scalar_seconds,
                dp::simd::name(dp::simd::active()), 1e3 * tab.vector_seconds,
                tab.scalar_seconds / tab.vector_seconds);
    std::printf("%8s %9s %13s %13s %14s %13s %11s\n", "threads", "layout", "env ms/build",
                "prod ms/call", "layout bytes", "bytes ratio", "alloc-free");
    for (int threads : thread_counts) {
      const Point dense = time_kernel(cfg, sys, nlist, EnvMatKernel::Baseline, threads);
      const Point compact = time_kernel(cfg, sys, nlist, EnvMatKernel::Optimized, threads);
      const double ratio = static_cast<double>(compact.layout_bytes) /
                           static_cast<double>(dense.layout_bytes);
      std::printf("%8d %9s %13.3f %13.3f %14zu %13s %11s\n", threads, "dense",
                  1e3 * dense.env_seconds, 1e3 * dense.prod_seconds, dense.layout_bytes, "-",
                  dense.alloc_free ? "yes" : "NO");
      std::printf("%8d %9s %13.3f %13.3f %14zu %12.2fx %11s\n", threads, "compact",
                  1e3 * compact.env_seconds, 1e3 * compact.prod_seconds, compact.layout_bytes,
                  ratio, compact.alloc_free ? "yes" : "NO");
      reg.record_event("prod_force",
                       {{"sel", static_cast<double>(sel)},
                        {"threads", static_cast<double>(threads)},
                        {"padding_fraction", probe.padding_fraction()},
                        {"dense_env_seconds", dense.env_seconds},
                        {"compact_env_seconds", compact.env_seconds},
                        {"dense_prod_seconds", dense.prod_seconds},
                        {"compact_prod_seconds", compact.prod_seconds},
                        {"dense_bytes", static_cast<double>(dense.layout_bytes)},
                        {"compact_bytes", static_cast<double>(compact.layout_bytes)},
                        {"bytes_ratio", ratio},
                        {"lanes", lanes},
                        // Width-1 kernel body (std::fma) at Level::Scalar.
                        {"tab_scalar_seconds", tab.scalar_seconds},
                        {"tab_vector_seconds", tab.vector_seconds},
                        {"steady_state_alloc_free",
                         dense.alloc_free && compact.alloc_free ? 1.0 : 0.0}});
    }
  }
  dpbench::print_rule();
  if (reg.write_json_file("BENCH_prod_force.json")) std::printf("wrote BENCH_prod_force.json\n");
  std::printf(
      "Acceptance shape: bytes ratio <= 0.50x at sel = 500 (copper-like\n"
      "padding), alloc-free = yes in every row. Forces are byte-identical at\n"
      "every thread count (tests/dp/test_env_compact.cpp). Where the host\n"
      "dispatches a vector level (lanes > 1) the tabulation walk should beat\n"
      "forced-scalar by >= 2x (tests/tab/test_simd_parity.cpp has the\n"
      "bit-level agreement story).\n");
  return 0;
}
