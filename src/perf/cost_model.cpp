#include "perf/cost_model.hpp"

#include <cmath>
#include <numbers>

#include "nn/fitting_net.hpp"

namespace dp::perf {

namespace {
constexpr double kB = 8.0;  // bytes per double

/// Fraction of coefficient-table loads that miss cache: the table is a few
/// MB and neighboring slots hit nearby intervals, so most loads are hot.
constexpr double kTableMissRate = 0.05;

double fit_flops(const dp::core::ModelConfig& c) {
  double f = 0.0;
  std::size_t in = c.descriptor_dim();
  for (std::size_t w : c.fit_widths) {
    f += static_cast<double>(in) * static_cast<double>(w);
    in = w;
  }
  return f + static_cast<double>(in);  // final linear read-out
}

/// Bytes of one center type's fitting weights and biases.
double fit_weight_bytes(const dp::core::ModelConfig& c) {
  double w = 0.0;
  std::size_t in = c.descriptor_dim();
  for (std::size_t width : c.fit_widths) {
    w += static_cast<double>((in + 1) * width);
    in = width;
  }
  return (w + static_cast<double>(in + 1)) * kB;  // + the read-out layer
}

double embed_flops_per_scalar(const dp::core::ModelConfig& c) {
  double f = 0.0;
  std::size_t in = 1;
  for (std::size_t w : c.embed_widths) {
    f += static_cast<double>(in) * static_cast<double>(w);
    in = w;
  }
  return f;  // = d1 + 10 d1^2 for {d1, 2d1, 4d1} (paper Sec 2.2)
}
}  // namespace

WorkloadSpec WorkloadSpec::water() {
  WorkloadSpec w;
  w.config = dp::core::ModelConfig::water();
  w.density = 3 * 0.0334;  // atoms / A^3 at ambient density
  // mean neighbors = density * (4/3) pi rc^3
  w.real_neighbors = w.density * 4.0 / 3.0 * std::numbers::pi * std::pow(w.config.rcut, 3);
  w.dt_fs = 0.5;
  w.name = "water";
  return w;
}

WorkloadSpec WorkloadSpec::copper() {
  WorkloadSpec w;
  w.config = dp::core::ModelConfig::copper();
  w.density = 4.0 / std::pow(3.634, 3);
  w.real_neighbors = w.density * 4.0 / 3.0 * std::numbers::pi * std::pow(w.config.rcut, 3);
  w.dt_fs = 1.0;
  w.name = "copper";
  return w;
}

PathCosts per_atom_costs(const WorkloadSpec& w, Path path) {
  const auto& c = w.config;
  const double nm = c.nm();
  const double nr = w.real_neighbors;
  const double m = static_cast<double>(c.m());
  const double ms = static_cast<double>(c.axis_neuron);

  PathCosts out;

  // --- environment matrix (ProdEnvMatA) ----------------------------------
  // ~40 FLOPs per real neighbor (distance, gate, 16 row/deriv entries);
  // reads neighbor coordinates, writes the padded rmat + deriv rows.
  out.env_mat.flops = nr * 40.0;
  out.env_mat.bytes_read = nr * 4 * kB;
  out.env_mat.bytes_written = nm * 16 * kB;

  // --- embedding stage -----------------------------------------------------
  switch (path) {
    case Path::Baseline: {
      // Forward + backward GEMM pipelines over every slot (padding incl.):
      // forward = N_m (d1 + 10 d1^2) MACs, backward ~ 2x forward.
      const double fwd = nm * embed_flops_per_scalar(c);
      out.embedding.flops = 3.0 * fwd;
      // G is written once and read three times (A contraction, dE/dR~
      // assembly, backward), plus the retained layer activations (~2.5 G's
      // worth for the {d1,2d1,4d1} net) written and re-read.
      const double g_bytes = nm * m * kB;
      out.embedding.bytes_written = g_bytes * (1.0 + 2.5);
      out.embedding.bytes_read = g_bytes * (3.0 + 2.5);
      break;
    }
    case Path::Tabulated: {
      // Quintic Horner (value + derivative ~ 20 ops/channel) over every
      // slot; G and dG/ds still materialized and re-read by the GEMMs.
      out.embedding.flops = nm * 20.0 * m;
      const double g_bytes = nm * m * kB;
      out.embedding.bytes_written = 2.0 * g_bytes;  // G and dG
      out.embedding.bytes_read = 3.0 * g_bytes + nm * 6.0 * m * kB * kTableMissRate;
      break;
    }
    case Path::Fused: {
      // Two fused passes over REAL slots only: pass 1 evaluates the table
      // and contracts (poly ~10 + outer product 8 ops/channel), pass 2
      // re-evaluates with derivative (~20) and reduces (~9). G never
      // touches memory; traffic is the rmat rows + table misses.
      out.embedding.flops = nr * (18.0 + 29.0) * m;
      out.embedding.bytes_read =
          nr * 4 * kB * 2.0 + nr * 12.0 * m * kB * kTableMissRate;
      out.embedding.bytes_written = nr * 4 * kB;  // g_rmat rows
      break;
    }
  }

  // --- descriptor + fitting net (same for every path) ---------------------
  // D = A<^T A forward + adjoint (2 x 4 M< M MACs each); fitting net forward
  // plus ~2x backward. The fitting weights stream once per block of
  // nn::kFitBlock atoms (the batched fitting net), so each atom pays a
  // 1/kFitBlock share of them.
  out.descriptor_fit.flops = 4.0 * 4.0 * ms * m + 3.0 * fit_flops(c);
  double act_bytes = 0.0;
  for (std::size_t width : c.fit_widths) act_bytes += static_cast<double>(width) * kB;
  out.descriptor_fit.bytes_written = 2.0 * act_bytes + ms * m * kB;
  out.descriptor_fit.bytes_read = 2.0 * act_bytes + 2.0 * ms * m * kB +
                                  fit_weight_bytes(c) / static_cast<double>(nn::kFitBlock);

  // --- force / virial scatter ---------------------------------------------
  out.prod_force.flops = nr * 50.0;
  out.prod_force.bytes_read = nr * 20 * kB;
  out.prod_force.bytes_written = nr * 6 * kB;

  return out;
}

double bytes_per_atom(const WorkloadSpec& w, Path path) {
  const auto& c = w.config;
  const double nm = c.nm();
  const double m = static_cast<double>(c.m());
  // Environment matrix + derivative + slot map + neighbor list + state.
  const double env = nm * (16.0 + 0.5) * kB + 200.0;
  switch (path) {
    case Path::Baseline:
      // ~6 live N_m x M buffers (G, workspace activations, gradients,
      // TensorFlow's trade-space copies) — calibrated to the paper's 4,600
      // copper atoms per 16 GB V100.
      return env + 6.0 * nm * m * kB;
    case Path::Tabulated:
      // G + dG + gradient buffer still materialized.
      return env + 3.0 * nm * m * kB;
    case Path::Fused:
      // Only the dE/dR~ rows (N_m x 4) are materialized besides the
      // environment matrix itself.
      return env + nm * 4.0 * kB;
  }
  return env;
}

double bytes_per_rank_overhead(const WorkloadSpec& w, Path path) {
  // Model weights + runtime graph + MPI buffers. The paper quotes 13 MB for
  // the copper graph and a noticeably larger water graph; the runtime adds
  // buffers on top. The tabulated paths also ship the coefficient table.
  double overhead = 200e6;  // runtime + MPI buffers
  double weights = 0.0;
  std::size_t in = w.config.descriptor_dim();
  for (std::size_t width : w.config.fit_widths) {
    weights += static_cast<double>(in * width) * kB;
    in = width;
  }
  overhead += weights * w.config.ntypes;
  if (path != Path::Baseline) {
    // table: intervals x M x 6 coefficients (0.01 interval over s in [0,2]).
    overhead += 200.0 * static_cast<double>(w.config.m()) * 6.0 * kB * w.config.ntypes;
  }
  return overhead;
}

}  // namespace dp::perf
