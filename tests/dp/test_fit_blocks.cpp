// The three-phase atom loop shared by every DP path (pass 1, one batched
// descriptor + fitting evaluation per block of same-type atoms, pass 2):
// block-invariant per-atom outputs, total energy, forces and virial bitwise
// identical at any thread count, and the fit.block cost booking.
#include <omp.h>

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/cost.hpp"
#include "common/rng.hpp"
#include "dp/baseline_model.hpp"
#include "dp/descriptor.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "fused/se_r_model.hpp"
#include "md/lattice.hpp"
#include "tab/compressed_model.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::core {
namespace {

/// Restores the OpenMP max-thread setting on scope exit.
struct OmpThreadGuard {
  int saved = omp_get_max_threads();
  ~OmpThreadGuard() { omp_set_num_threads(saved); }
};

TEST(FitBlocks, DescriptorFitBlockMatchesOneAtomBitwise) {
  // Any block size, any position in the block: the same energy and g_a
  // bits as the one-atom entry point.
  const ModelConfig cfg = ModelConfig::tiny(2);
  const DPModel model(cfg, 21);
  const nn::FittingNet& fit = model.fitting(0);
  const std::size_t m = cfg.m(), m_sub = cfg.axis_neuron;
  const std::size_t total = 2 * nn::kFitBlock + 5;
  std::vector<double> a(total * 4 * m);
  Rng rng(22);
  for (auto& v : a) v = rng.uniform(-0.2, 0.2);
  const double scale = 0.125;

  AtomKernelScratch one;
  std::vector<double> e_one(total), g_one(total * 4 * m);
  for (std::size_t r = 0; r < total; ++r)
    e_one[r] = descriptor_fit_atom(fit, a.data() + r * 4 * m, m, m_sub, scale, one,
                                   g_one.data() + r * 4 * m);
  AtomKernelScratch block;
  for (std::size_t n = 1; n + 2 <= total; ++n) {
    std::vector<double> e(n), g(n * 4 * m);
    descriptor_fit_block(fit, a.data() + 2 * 4 * m, n, m, m_sub, scale, block, g.data(),
                         e.data());
    EXPECT_EQ(0, std::memcmp(e.data(), e_one.data() + 2, n * sizeof(double))) << "n=" << n;
    EXPECT_EQ(0, std::memcmp(g.data(), g_one.data() + 2 * 4 * m, n * 4 * m * sizeof(double)))
        << "n=" << n;
  }
}

struct WaterCase {
  ModelConfig cfg;
  DPModel model;
  md::Configuration sys = md::make_water(1, 1, 1, 23);
  tab::TabulatedDP tab;
  md::NeighborList nl;
  explicit WaterCase(DescriptorKind kind = DescriptorKind::SeA)
      : cfg(config(kind)),
        model(cfg, 23),
        tab(model, {0.0, tab::TabulatedDP::s_max(cfg, 0.9), 0.005}),
        nl(cfg.rcut, 1.0) {
    nl.build(sys.box, sys.atoms.pos);
  }
  static ModelConfig config(DescriptorKind kind) {
    ModelConfig c = ModelConfig::tiny(2);
    c.descriptor = kind;
    return c;
  }
};

template <class Make>
void expect_thread_invariant(const WaterCase& w, const char* path, Make make) {
  OmpThreadGuard guard;
  md::ForceResult ref_out;
  std::vector<Vec3> ref;
  for (const int t : {1, 2, 4, 8}) {
    omp_set_num_threads(t);
    const std::unique_ptr<md::ForceField> ff = make();
    md::Atoms atoms = w.sys.atoms;
    const md::ForceResult out = ff->compute(w.sys.box, atoms, w.nl);
    if (ref.empty()) {
      ref_out = out;
      ref = atoms.force;
      continue;
    }
    EXPECT_EQ(0, std::memcmp(&out.energy, &ref_out.energy, sizeof(double)))
        << path << " threads=" << t << ": energy " << out.energy << " vs " << ref_out.energy;
    EXPECT_EQ(0, std::memcmp(&out.virial, &ref_out.virial, sizeof(Mat3)))
        << path << " threads=" << t;
    EXPECT_EQ(0, std::memcmp(atoms.force.data(), ref.data(), ref.size() * sizeof(Vec3)))
        << path << " threads=" << t;
  }
}

TEST(FitBlocks, WaterForcesBitwiseAcrossThreadCounts) {
  // Water interleaves O and H, so every thread chunk keeps two pending
  // blocks and flushes partial ones at its end; 192 atoms over 1-8 threads
  // covers full blocks, tails and chunks shorter than a block. The total
  // energy and the virial must not move either.
  const WaterCase w;
  expect_thread_invariant(w, "fused", [&] { return std::make_unique<fused::FusedDP>(w.tab); });
  expect_thread_invariant(w, "mixed",
                          [&] { return std::make_unique<fused::MixedFusedDP>(w.tab); });
  expect_thread_invariant(w, "mixed-half", [&] {
    return std::make_unique<fused::MixedFusedDP>(w.tab, fused::MixedPrecision::Half);
  });
  expect_thread_invariant(w, "compressed",
                          [&] { return std::make_unique<tab::CompressedDP>(w.tab); });
  expect_thread_invariant(w, "baseline", [&] { return std::make_unique<BaselineDP>(w.model); });
  const WaterCase radial(DescriptorKind::SeR);
  expect_thread_invariant(radial, "se_r",
                          [&] { return std::make_unique<fused::SeRFusedDP>(radial.tab); });
}

TEST(FitBlocks, RecordsFitBlockCost) {
  // The serial compressed path's blocks are exact: ceil(n_t / kFitBlock)
  // per center type. FLOPs are 4 x MACs per atom (forward + input-gradient
  // GEMMs, 2 FLOPs per MAC), bytes the weights once per block — so the
  // recorded intensity is n / blocks times the one-row intensity.
  const WaterCase w;
  tab::CompressedDP ff(w.tab);
  md::Atoms atoms = w.sys.atoms;
  CostRegistry::instance().clear();
  ff.compute(w.sys.box, atoms, w.nl);
  std::vector<std::size_t> per_type(static_cast<std::size_t>(w.cfg.ntypes), 0);
  for (const int t : atoms.type) ++per_type[static_cast<std::size_t>(t)];
  std::size_t blocks = 0;
  for (const std::size_t c : per_type) blocks += (c + nn::kFitBlock - 1) / nn::kFitBlock;
  const nn::FittingNet& fit = w.model.fitting(0);
  const double n = static_cast<double>(atoms.size());
  const KernelCost c = CostRegistry::instance().get("fit.block");
  EXPECT_DOUBLE_EQ(c.flops, 4.0 * fit.flops_per_eval() * n);
  EXPECT_DOUBLE_EQ(c.bytes_read, fit.weight_bytes() * static_cast<double>(blocks));
  const double one_row = 4.0 * fit.flops_per_eval() / fit.weight_bytes();
  EXPECT_NEAR(c.intensity() / one_row, n / static_cast<double>(blocks), 1e-9);
  EXPECT_GT(c.intensity() / one_row, 0.5 * static_cast<double>(nn::kFitBlock));
  CostRegistry::instance().clear();
}

}  // namespace
}  // namespace dp::core
