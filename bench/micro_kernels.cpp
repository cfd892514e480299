// Micro-benchmarks of the hot kernels: the small GEMM shapes of the DP
// pipeline, quintic table evaluation, and neighbor-list construction.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "nn/gemm.hpp"
#include "tab/table.hpp"

namespace {

std::vector<double> rand_vec(std::size_t n, std::uint64_t seed) {
  dp::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

// The R~^T G contraction shape: (4 x N_m) * (N_m x M).
void BM_GemmTn_EnvContraction(benchmark::State& state) {
  const std::size_t nm = static_cast<std::size_t>(state.range(0)), m = 128;
  auto a = rand_vec(nm * 4, 1), b = rand_vec(nm * m, 2);
  std::vector<double> c(4 * m);
  for (auto _ : state) {
    dp::nn::gemm_tn(a.data(), b.data(), c.data(), 4, nm, m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * nm * 4 * m));
}

// The fitting-net hidden-layer shape: (1 x 240) * (240 x 240).
void BM_Affine_FittingLayer(benchmark::State& state) {
  const std::size_t k = 240, n = 240;
  auto x = rand_vec(k, 3), w = rand_vec(k * n, 4), b = rand_vec(n, 5);
  std::vector<double> y(n);
  for (auto _ : state) {
    dp::nn::affine(x.data(), w.data(), b.data(), y.data(), k, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k * n));
}

// One 128-channel table walk (value + derivative) on the blocked layout.
void BM_Poly5Table(benchmark::State& state) {
  dp::nn::EmbeddingNet net({32, 64, 128});
  dp::Rng rng(6);
  net.init_random(rng);
  dp::tab::TabulatedEmbedding table(net, {0.0, 2.0, 0.01});
  std::vector<double> g(128), dg(128);
  double s = 0.0;
  for (auto _ : state) {
    s += 0.001;
    if (s > 1.99) s = 0.001;
    table.eval_with_deriv(s, g.data(), dg.data());
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 128));
}

// Reference network evaluation of one embedding row — what the table
// replaces (the per-row cost ratio is the paper's 82% FLOP saving).
void BM_EmbeddingNetRow(benchmark::State& state) {
  dp::nn::EmbeddingNet net({32, 64, 128});
  dp::Rng rng(6);
  net.init_random(rng);
  std::vector<double> g(128);
  double s = 0.0;
  for (auto _ : state) {
    s += 0.001;
    if (s > 1.99) s = 0.001;
    net.eval(s, g.data());
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 128));
}

void BM_NeighborListBuild(benchmark::State& state) {
  auto sys = dp::md::make_fcc(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(0)), 3.634, 63.546, 0.05, 9);
  dp::md::NeighborList nl(8.0, 2.0);
  for (auto _ : state) {
    nl.build(sys.box, sys.atoms.pos);
    benchmark::DoNotOptimize(nl.max_neighbors());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * sys.atoms.size()));
}

}  // namespace

BENCHMARK(BM_GemmTn_EnvContraction)->Arg(138)->Arg(500);
BENCHMARK(BM_Affine_FittingLayer);
BENCHMARK(BM_Poly5Table);
BENCHMARK(BM_EmbeddingNetRow);
BENCHMARK(BM_NeighborListBuild)->Arg(6)->Arg(10);

BENCHMARK_MAIN();
