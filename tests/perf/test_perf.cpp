#include <gtest/gtest.h>

#include "nn/fitting_net.hpp"
#include "perf/cost_model.hpp"
#include "perf/scaling_model.hpp"

namespace dp::perf {
namespace {

TEST(Machine, PresetsMatchPaperSpecs) {
  const auto v = Machine::v100();
  EXPECT_DOUBLE_EQ(v.peak_flops, 7.0e12);
  EXPECT_DOUBLE_EQ(v.mem_bandwidth, 900e9);
  EXPECT_DOUBLE_EQ(v.power_watts, 369);
  const auto a = Machine::a64fx();
  EXPECT_DOUBLE_EQ(a.peak_flops, 3.38e12);
  EXPECT_DOUBLE_EQ(a.mem_bandwidth, 1024e9);
  EXPECT_DOUBLE_EQ(a.power_watts, 165);
  EXPECT_EQ(MachineSystem::summit().ranks_per_node, 6);
  EXPECT_EQ(MachineSystem::fugaku().ranks_per_node, 16);
}

TEST(Roofline, MemoryBoundKernelUsesBandwidth) {
  Machine m = Machine::v100();
  KernelCost c{/*flops=*/1e6, /*read=*/1e9, /*write=*/0};
  // intensity 1e-3 FLOP/B — far below the ridge: memory roof applies.
  EXPECT_NEAR(roofline_seconds(c, m), 1e9 / (900e9 * 0.94), 1e-9);
}

TEST(Roofline, ComputeBoundKernelUsesPeak) {
  Machine m = Machine::v100();
  KernelCost c{/*flops=*/1e12, /*read=*/8.0, /*write=*/0};
  EXPECT_NEAR(roofline_seconds(c, m), 1e12 / (7e12 * m.flop_efficiency), 1e-6);
}

TEST(Workload, NeighborStatisticsMatchPaper) {
  const auto water = WorkloadSpec::water();
  // ~91 real neighbors inside rc = 6 A; N_m = 138 reserved.
  EXPECT_NEAR(water.real_neighbors, 91.0, 5.0);
  EXPECT_EQ(water.config.nm(), 138);
  const auto copper = WorkloadSpec::copper();
  // ~179 in ambient FCC inside rc = 8 A; N_m = 500 reserved.
  EXPECT_NEAR(copper.real_neighbors, 179.0, 8.0);
  EXPECT_EQ(copper.config.nm(), 500);
  // Copper has the larger padding ratio (the paper's redundancy argument).
  EXPECT_GT(1.0 - copper.real_neighbors / copper.config.nm(),
            1.0 - water.real_neighbors / water.config.nm());
}

TEST(CostModel, TabulationSavesMostEmbeddingFlops) {
  // Paper Sec 3.2: the tabulated model saves 82% of the embedding FLOPs.
  const auto w = WorkloadSpec::copper();
  const auto base = per_atom_costs(w, Path::Baseline);
  const auto tab = per_atom_costs(w, Path::Tabulated);
  const double saved = 1.0 - tab.embedding.flops / (base.embedding.flops / 3.0);
  // Compare against the forward-only baseline count as the paper does.
  EXPECT_GT(saved, 0.70);
  EXPECT_LT(saved, 0.95);
}

TEST(CostModel, FusionEliminatesEmbeddingTraffic) {
  const auto w = WorkloadSpec::copper();
  const auto tab = per_atom_costs(w, Path::Tabulated);
  const auto fused = per_atom_costs(w, Path::Fused);
  EXPECT_LT(fused.embedding.bytes_total(), 0.1 * tab.embedding.bytes_total());
}

TEST(CostModel, MemoryPerAtomOrdering) {
  const auto w = WorkloadSpec::copper();
  const double b = bytes_per_atom(w, Path::Baseline);
  const double t = bytes_per_atom(w, Path::Tabulated);
  const double f = bytes_per_atom(w, Path::Fused);
  EXPECT_GT(b, t);
  EXPECT_GT(t, f);
  // Paper Sec 6.1: system size grows ~26x for copper on a 16 GB V100.
  EXPECT_GT(b / f, 15.0);
  EXPECT_LT(b / f, 45.0);
}

TEST(CostModel, BaselineCopperCapacityNearPaper) {
  // Ref [20]: ~4,600 copper atoms per V100 in the baseline.
  ScalingModel m(MachineSystem::summit(), WorkloadSpec::copper(), Path::Baseline);
  const auto atoms = m.max_atoms_per_rank();
  EXPECT_GT(atoms, 2000u);
  EXPECT_LT(atoms, 9000u);
}

TEST(ScalingModel, FusedCopperCapacityNearPaperWeakScalingPoint) {
  // Paper: 122,779 copper atoms per MPI task in the Summit weak scaling.
  ScalingModel m(MachineSystem::summit(), WorkloadSpec::copper(), Path::Fused);
  const auto atoms = m.max_atoms_per_rank();
  EXPECT_GT(atoms, 60000u);
  EXPECT_LT(atoms, 250000u);
}

TEST(ScalingModel, SummitFullMachineReachesBillions) {
  // Paper Fig 11 / abstract: 3.4 billion copper atoms on full Summit.
  ScalingModel m(MachineSystem::summit(), WorkloadSpec::copper(), Path::Fused);
  const double atoms = static_cast<double>(m.max_atoms(4560));
  EXPECT_GT(atoms, 1.5e9);
  EXPECT_LT(atoms, 8e9);
}

TEST(ScalingModel, StrongScalingEfficiencyDecays) {
  ScalingModel m(MachineSystem::summit(), WorkloadSpec::copper(), Path::Fused);
  const auto curve = m.strong_curve(13'500'000, {20, 80, 285, 1140, 4560});
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve.front().efficiency, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i].efficiency, curve[i - 1].efficiency + 1e-12);
    EXPECT_LT(curve[i].step_seconds, curve[i - 1].step_seconds);  // still speeds up
  }
  // Paper Fig 10: 35.96% at 4,560 Summit nodes, 11.2 ns/day.
  EXPECT_GT(curve.back().efficiency, 0.15);
  EXPECT_LT(curve.back().efficiency, 0.75);
  EXPECT_GT(curve.back().ns_per_day, 4.0);
  EXPECT_LT(curve.back().ns_per_day, 40.0);
}

TEST(ScalingModel, WeakScalingIsNearlyFlat) {
  ScalingModel m(MachineSystem::fugaku(), WorkloadSpec::copper(), Path::Fused);
  const auto curve = m.weak_curve(6804, {18, 144, 1152, 9936});
  for (const auto& p : curve) EXPECT_GT(p.efficiency, 0.95);
}

TEST(ScalingModel, TtsImprovesWithPath) {
  // Headline Table 1 ordering: baseline slower than the optimized code at
  // the same machine scale.
  ScalingModel base(MachineSystem::summit(), WorkloadSpec::copper(), Path::Baseline);
  ScalingModel fused(MachineSystem::summit(), WorkloadSpec::copper(), Path::Fused);
  const auto pb = base.point(127'000'000, 4560);
  const auto pf = fused.point(127'000'000, 4560);
  EXPECT_LT(pf.tts_s_step_atom, pb.tts_s_step_atom / 2.5);
}

TEST(ScalingModel, GhostFractionGrowsUnderStrongScaling) {
  ScalingModel m(MachineSystem::fugaku(), WorkloadSpec::copper(), Path::Fused);
  const double g_small = m.ghost_atoms_per_rank(100000) / 100000;
  const double g_large = m.ghost_atoms_per_rank(113) / 113;
  // Paper Sec 6.4.1: 113-atom sub-regions carry a 1,735-atom ghost region.
  EXPECT_GT(g_large, g_small);
  EXPECT_GT(g_large, 5.0);
}

TEST(ScalingModel, SingleDeviceTtsOrderingMatchesTable2) {
  // Table 2: A64FX is slower per atom in absolute terms, but faster once
  // normalized by peak or power.
  ScalingModel v(MachineSystem::summit(), WorkloadSpec::water(), Path::Fused);
  ScalingModel a(MachineSystem::fugaku(), WorkloadSpec::water(), Path::Fused);
  // One device each: one Summit rank = 1 V100; one Fugaku node = 16 ranks.
  const auto pv = v.point(12880, 1);            // 6 ranks, 1 node
  const auto pa = a.point(18432, 1);            // 16 ranks, 1 node
  const double tts_v100 = pv.step_seconds / 12880 * 6;   // per single V100
  const double tts_a64fx = pa.step_seconds / 18432;      // whole node = 1 A64FX
  EXPECT_GT(tts_a64fx, tts_v100);  // absolute: V100 wins
  const double norm_v = tts_v100 * Machine::v100().peak_flops;
  const double norm_a = tts_a64fx * Machine::a64fx().peak_flops;
  EXPECT_LT(norm_a, norm_v);  // normalized by peak: A64FX wins
  const double pow_v = tts_v100 * Machine::v100().power_watts;
  const double pow_a = tts_a64fx * Machine::a64fx().power_watts;
  EXPECT_LT(pow_a, pow_v);  // normalized by power: A64FX wins
}

TEST(CostModel, FitWeightsStreamOncePerBlock) {
  // descriptor_fit.bytes_read carries the fitting weights once per block of
  // nn::kFitBlock atoms, on every path (the fitting net is path-invariant).
  for (const WorkloadSpec& w : {WorkloadSpec::water(), WorkloadSpec::copper()}) {
    const auto& c = w.config;
    double weights = 0.0;
    std::size_t in = c.descriptor_dim();
    for (std::size_t width : c.fit_widths) {
      weights += static_cast<double>((in + 1) * width) * 8.0;
      in = width;
    }
    weights += static_cast<double>(in + 1) * 8.0;
    double act_bytes = 0.0;
    for (std::size_t width : c.fit_widths) act_bytes += static_cast<double>(width) * 8.0;
    const double ms = static_cast<double>(c.axis_neuron), m = static_cast<double>(c.m());
    const double expect =
        2.0 * act_bytes + 2.0 * ms * m * 8.0 + weights / static_cast<double>(nn::kFitBlock);
    for (const Path p : {Path::Baseline, Path::Tabulated, Path::Fused})
      EXPECT_NEAR(per_atom_costs(w, p).descriptor_fit.bytes_read, expect, 1e-9 * expect)
          << w.name;
  }
}

TEST(CalibrationGuard, Table2ModelValuesPinned) {
  // Regression guard on the calibration: these are the modeled Table 2
  // values recorded in EXPERIMENTS.md; drifting them silently would
  // invalidate the documented comparisons.
  auto tts = [](const MachineSystem& sys, const WorkloadSpec& wl, std::size_t atoms) {
    ScalingModel m(sys, wl, Path::Fused);
    return m.point(atoms, 1).step_seconds / static_cast<double>(atoms) *
           sys.devices_per_node * 1e6;
  };
  EXPECT_NEAR(tts(MachineSystem::summit(), WorkloadSpec::water(), 12880), 2.76, 0.05);
  EXPECT_NEAR(tts(MachineSystem::summit(), WorkloadSpec::copper(), 6912), 4.14, 0.05);
  EXPECT_NEAR(tts(MachineSystem::fugaku(), WorkloadSpec::water(), 18432), 4.48, 0.05);
  EXPECT_NEAR(tts(MachineSystem::fugaku(), WorkloadSpec::copper(), 2592), 8.05, 0.10);
}

TEST(CalibrationGuard, HeadlineProjectionsPinned) {
  ScalingModel summit(MachineSystem::summit(), WorkloadSpec::copper(), Path::Fused);
  const auto p = summit.point(3'359'233'440, 4560);  // full-Summit weak point
  EXPECT_NEAR(p.pflops, 41.6, 1.0);
  EXPECT_NEAR(p.tts_s_step_atom, 7.1e-11, 0.4e-11);
  ScalingModel fugaku(MachineSystem::fugaku(), WorkloadSpec::copper(), Path::Fused);
  const auto q = fugaku.point(17'198'987'904, 157986);
  EXPECT_NEAR(q.pflops, 92.6, 2.0);
}

}  // namespace
}  // namespace dp::perf
