// Fit-block microbenchmark: the fitting net of the paper copper and water
// models at nn::kFitBlock rows, hidden layer by hidden layer (the one-wide
// read-out layer is 0.1% of the FLOPs). Each thread runs block sequences
// as the DP paths' per-thread FitBlocks do — per layer the forward GEMM
// (gemm_acc, u = x W) and the activation (simd::pick_tanh over the rows x
// out block), then the backward GEMMs (gemm_nt, dE/dx = dE/du W^T) in
// reverse — on its own buffers against the shared weights, and every phase
// is timed where it runs, so each layer's weights come from wherever the
// layers before it left them. A std::tanh pass over the same elements is
// timed next to the kernel. At 1 and 4 threads; rates are per thread.
//
// The GEMMs sit under the compute roof (about 8 FLOP/B at 32 rows), so they
// are read against an FMA probe (simd::pick_fma_probe) run after every
// sequence on the same threads: fwd_over_probe and bwd_over_probe cancel
// the host's clock and its drift. Water has two nets of the copper shape
// (O and H centers), and its blocks alternate between them, so twice the
// weights stream through the caches.
//
// Emits BENCH_fit_block.json; tools/bench_compare.py gates it against
// bench/baselines/BENCH_fit_block.json (ratios to the probe higher-better,
// FLOPs strict).
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "dp/model_config.hpp"
#include "nn/fitting_net.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"

namespace {

using dp::AlignedVector;

constexpr int kRounds = 5;              ///< medians over rounds
constexpr double kRoundSeconds = 0.15;  ///< block sequences per round, on one thread
constexpr std::size_t kProbeIters = 4000;

struct Net {
  const char* name;
  double id;  ///< event key: 0 copper, 1 water
  std::vector<dp::nn::FittingNet> nets;  ///< one per center type
};

/// One thread's block at kFitBlock rows: the input rows of every layer
/// (x[0] holds descriptor rows), a libm scratch row block and the backward
/// rows.
struct BlockBuffers {
  std::vector<AlignedVector<double>> x;
  AlignedVector<double> libm, g_u, g_in;
  BlockBuffers(const dp::nn::FittingNet& net, std::size_t rows, std::uint64_t seed) {
    dp::Rng rng(seed);
    std::size_t widest = net.input_dim();
    x.emplace_back(rows * net.input_dim());
    for (const auto& layer : net.layers()) {
      x.emplace_back(rows * layer.out_dim());
      widest = std::max(widest, layer.out_dim());
    }
    for (double& v : x[0]) v = rng.uniform(-1.0, 1.0);
    libm.resize(rows * widest);
    g_u.resize(rows * widest);
    g_in.resize(rows * widest);
    for (double& v : g_u) v = rng.uniform(-1.0, 1.0);
  }
};

/// Seconds one thread spent in each phase of its block sequences, and in
/// the FMA probe run after each sequence.
struct Phases {
  std::vector<double> fwd, act, libm, bwd;  ///< per hidden layer
  double probe = 0.0;
  explicit Phases(std::size_t hidden) : fwd(hidden), act(hidden), libm(hidden), bwd(hidden) {}
};

/// One block of every center type's net through the hidden layers, as the
/// DP paths run it: forward GEMM and tanh per layer, then the backward
/// GEMMs in reverse, each phase timed where it runs (so a layer's weights
/// come from wherever the layers before it left them). A std::tanh pass
/// over the same elements is timed next to the kernel. Then the probe.
void block_sequence(const Net& net, std::size_t rows, BlockBuffers& b, Phases& ph,
                    dp::simd::TanhFn tanh_kernel, dp::simd::FmaProbeFn probe) {
  const std::size_t hidden = net.nets[0].layers().size() - 1;
  for (const auto& fit : net.nets) {
    const auto& layers = fit.layers();
    for (std::size_t l = 0; l < hidden; ++l) {
      const std::size_t in = layers[l].in_dim(), out = layers[l].out_dim();
      double* y = b.x[l + 1].data();
      dp::WallTimer t;
      dp::nn::gemm_acc(b.x[l].data(), layers[l].weights().data(), y, rows, in, out);
      ph.fwd[l] += t.seconds();
      t.reset();
      for (std::size_t k = 0; k < rows * out; ++k) b.libm[k] = std::tanh(y[k]);
      ph.libm[l] += t.seconds();
      t.reset();
      tanh_kernel(y, y, rows * out);
      ph.act[l] += t.seconds();
    }
    for (std::size_t l = hidden; l-- > 0;) {
      dp::WallTimer t;
      dp::nn::gemm_nt(b.g_u.data(), layers[l].weights().data(), b.g_in.data(), rows,
                      layers[l].out_dim(), layers[l].in_dim());
      ph.bwd[l] += t.seconds();
    }
  }
  double sink = 0.0;
  dp::WallTimer t;
  probe(kProbeIters, &sink);
  ph.probe += t.seconds();
}

/// The host facts a reader needs next to the rates: CPU model name (the
/// event label) and number, hardware threads, cache sizes and the
/// dispatched lane width.
void record_host(dp::obs::MetricsRegistry& reg) {
  std::string model = "unknown";
  double model_number = -1.0;
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      std::string l(line);
      const std::size_t colon = l.find(':');
      if (colon == std::string::npos || colon + 2 > l.size()) continue;
      if (!l.empty() && l.back() == '\n') l.pop_back();
      if (l.rfind("model name", 0) == 0) model = l.substr(colon + 2);
      if (l.rfind("model\t", 0) == 0) model_number = std::atof(l.c_str() + colon + 1);
      if (l.empty()) break;  // end of the first processor's block
    }
    std::fclose(f);
  }
  auto kib = [](int name) {
    return static_cast<double>(std::max(::sysconf(name), 0L)) / 1024.0;
  };
  const unsigned threads = std::thread::hardware_concurrency();
  reg.record_event("host", model,
                   {{"cpu_model", model_number},
                    {"hardware_threads", static_cast<double>(threads)},
                    {"l1d_kib", kib(_SC_LEVEL1_DCACHE_SIZE)},
                    {"l2_kib", kib(_SC_LEVEL2_CACHE_SIZE)},
                    {"l3_kib", kib(_SC_LEVEL3_CACHE_SIZE)},
                    {"lanes", static_cast<double>(dp::simd::lanes())}});
  std::printf("host: %s (model %.0f), %u hardware threads, L2 %.0f KiB, L3 %.0f KiB\n",
              model.c_str(), model_number, threads, kib(_SC_LEVEL2_CACHE_SIZE),
              kib(_SC_LEVEL3_CACHE_SIZE));
}

}  // namespace

int main() {
  const std::size_t rows = dp::nn::kFitBlock;
  std::printf(
      "Fit block: the paper fitting nets at kFitBlock = %zu rows, per layer\n"
      "(forward gemm_acc, backward gemm_nt, tanh; GFLOP/s per thread and the\n"
      "ratio to an FMA probe run on the same threads)\n",
      rows);
  std::printf("SIMD dispatch: %s (%zu lanes)\n", dp::simd::name(dp::simd::active()),
              dp::simd::lanes());
  dp::obs::MetricsRegistry reg;
  record_host(reg);
  std::vector<Net> nets;
  for (const auto& [name, cfg, id] :
       {std::tuple{"copper", dp::core::ModelConfig::copper(), 0.0},
        std::tuple{"water", dp::core::ModelConfig::water(), 1.0}}) {
    Net net{name, id, {}};
    for (int t = 0; t < cfg.ntypes; ++t) {
      net.nets.emplace_back(cfg.descriptor_dim(), cfg.fit_widths);
      dp::Rng rng(2022 + static_cast<std::uint64_t>(t));
      net.nets.back().init_random(rng);
    }
    nets.push_back(std::move(net));
  }
  const dp::simd::TanhFn tanh_kernel = dp::simd::pick_tanh(dp::simd::active());
  const dp::simd::FmaProbeFn probe = dp::simd::pick_fma_probe(dp::simd::active());
  double sink = 0.0;
  const double probe_flops = probe(kProbeIters, &sink);

  for (const int threads : {1, 4}) {
    std::printf("\nthreads = %d\n", threads);
    std::printf("%-7s %5s %11s %7s %15s %15s %11s %11s %7s\n", "net", "layer", "in x out",
                "probe", "fwd GF/s (xpk)", "bwd GF/s (xpk)", "tanh ns/el", "libm ns/el",
                "tanh x");
    for (const Net& net : nets) {
      const std::size_t types = net.nets.size();
      const auto& layers = net.nets[0].layers();
      // The one-wide read-out layer (0.1% of the FLOPs) is all overhead.
      const std::size_t hidden = layers.size() - 1;
      // Sequences per round: kRoundSeconds of them on one thread.
      int reps = 1;
      {
        BlockBuffers b(net.nets[0], rows, 7);
        Phases ph(hidden);
        block_sequence(net, rows, b, ph, tanh_kernel, probe);
        dp::WallTimer t;
        block_sequence(net, rows, b, ph, tanh_kernel, probe);
        reps = std::max(3, static_cast<int>(kRoundSeconds / t.seconds()));
      }
      // One entry per round: the probe's per-thread rate, and per layer the
      // GEMM rates over it, the tanh costs and the GEMM seconds.
      std::vector<double> probe_gf;
      std::vector<std::vector<double>> fwd_r(hidden), bwd_r(hidden), act_ns(hidden),
          libm_ns(hidden), fwd_s(hidden), bwd_s(hidden);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Phases> per_thread(static_cast<std::size_t>(threads), Phases(hidden));
#pragma omp parallel num_threads(threads)
        {
          const std::size_t tid = static_cast<std::size_t>(omp_get_thread_num());
          BlockBuffers b(net.nets[0], rows, 7 + tid);
          Phases warm(hidden);
          block_sequence(net, rows, b, warm, tanh_kernel, probe);
#pragma omp barrier
          for (int r = 0; r < reps; ++r)
            block_sequence(net, rows, b, per_thread[tid], tanh_kernel, probe);
        }
        Phases sum(hidden);
        for (const Phases& ph : per_thread) {
          sum.probe += ph.probe;
          for (std::size_t l = 0; l < hidden; ++l) {
            sum.fwd[l] += ph.fwd[l];
            sum.bwd[l] += ph.bwd[l];
            sum.act[l] += ph.act[l];
            sum.libm[l] += ph.libm[l];
          }
        }
        const double calls = static_cast<double>(reps) * threads;
        const double pk = probe_flops * calls / sum.probe * 1e-9;
        probe_gf.push_back(pk);
        for (std::size_t l = 0; l < hidden; ++l) {
          const double flops = 2.0 * static_cast<double>(rows * layers[l].in_dim() *
                                                         layers[l].out_dim() * types);
          const double elems = static_cast<double>(rows * layers[l].out_dim() * types);
          fwd_r[l].push_back(flops * calls / sum.fwd[l] * 1e-9 / pk);
          bwd_r[l].push_back(flops * calls / sum.bwd[l] * 1e-9 / pk);
          act_ns[l].push_back(sum.act[l] / (elems * calls) * 1e9);
          libm_ns[l].push_back(sum.libm[l] / (elems * calls) * 1e9);
          fwd_s[l].push_back(sum.fwd[l] / calls);
          bwd_s[l].push_back(sum.bwd[l] / calls);
        }
      }
      auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
      };
      const double pk = median(probe_gf);
      for (std::size_t l = 0; l < hidden; ++l) {
        const std::size_t in = layers[l].in_dim(), out = layers[l].out_dim();
        const double flops = 2.0 * static_cast<double>(rows * in * out * types);
        const double fwd = median(fwd_r[l]), bwd = median(bwd_r[l]);
        const double act = median(act_ns[l]), libm = median(libm_ns[l]);
        std::printf("%-7s %5zu %5zu x %-4zu %7.1f %8.1f (%.2f) %8.1f (%.2f) %11.2f %11.2f",
                    net.name, l, in, out, pk, fwd * pk, fwd, bwd * pk, bwd, act, libm);
        std::printf(" %6.1fx\n", libm / act);
        reg.record_event("fit_block", std::string(net.name) + " layer " + std::to_string(l),
                         {{"net", net.id},
                          {"layer", static_cast<double>(l)},
                          {"threads", static_cast<double>(threads)},
                          {"rows", static_cast<double>(rows)},
                          {"flops", flops},
                          {"fwd_seconds", median(fwd_s[l])},
                          {"bwd_seconds", median(bwd_s[l])},
                          {"act_ns_per_element", act},
                          {"act_libm_ns_per_element", libm},
                          {"probe_gflops", pk},
                          {"fwd_over_probe", fwd},
                          {"bwd_over_probe", bwd},
                          {"act_speedup_vs_libm", libm / act},
                          {"lanes", static_cast<double>(dp::simd::lanes())}});
      }
    }
  }
  dpbench::print_rule();
  if (reg.write_json_file("BENCH_fit_block.json")) std::printf("wrote BENCH_fit_block.json\n");
  std::printf(
      "Acceptance shape: on an AVX-512 host the 2048 x 240 and 240 x 240\n"
      "forwards run at >= 0.5 of the probe at one thread, and the tanh kernel\n"
      "beats the std::tanh loop by >= 5x.\n");
  return 0;
}
