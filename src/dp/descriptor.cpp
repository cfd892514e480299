#include "dp/descriptor.hpp"

#include <cstring>

#include "common/cost.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"

namespace dp::core {

void descriptor_forward(const double* a_mat, std::size_t m, std::size_t m_sub,
                        double* d_flat) {
  simd::pick_descriptor_forward(simd::active())(a_mat, m, m_sub, d_flat);
}

void descriptor_backward(const double* a_mat, const double* g_d, std::size_t m,
                         std::size_t m_sub, double* g_a) {
  simd::pick_descriptor_backward(simd::active())(a_mat, g_d, m, m_sub, g_a);
}

void descriptor_fit_block(const nn::FittingNet& fit, const double* a_mats, std::size_t rows,
                          std::size_t m, std::size_t m_sub, double scale,
                          AtomKernelScratch& scratch, double* g_a, double* energy) {
  const std::size_t dd = m_sub * m;
  if (scratch.d_flat.size() < rows * dd) scratch.d_flat.resize(rows * dd);
  double* d = scratch.d_flat.data();
  for (std::size_t r = 0; r < rows; ++r)
    descriptor_forward(a_mats + r * 4 * m, m, m_sub, d + r * dd);
  fit.forward_block(d, rows, scratch.fit_ws, energy);
  // dE/dD overwrites D in place: the backward pass never reads the layer-0
  // input, so the block keeps one D-sized buffer instead of two.
  fit.backward(scratch.fit_ws, d);
  for (std::size_t r = 0; r < rows; ++r) {
    double* ga = g_a + r * 4 * m;
    descriptor_backward(a_mats + r * 4 * m, d + r * dd, m, m_sub, ga);
    for (std::size_t k = 0; k < 4 * m; ++k) ga[k] *= scale;
  }
}

double descriptor_fit_atom(const nn::FittingNet& fit, const double* a_mat, std::size_t m,
                           std::size_t m_sub, double scale, AtomKernelScratch& scratch,
                           double* g_a) {
  double energy = 0.0;
  descriptor_fit_block(fit, a_mat, 1, m, m_sub, scale, scratch, g_a, &energy);
  return energy;
}

void require_descriptor(const ModelConfig& cfg, DescriptorKind kind, const char* path) {
  DP_CHECK_MSG(cfg.descriptor == kind,
               path << " needs a model configured with DescriptorKind::"
                    << (kind == DescriptorKind::SeA ? "SeA" : "SeR"));
}

void FitBlocks::prepare(const ModelConfig& cfg) {
  const std::size_t nt = static_cast<std::size_t>(cfg.ntypes);
  se_a_ = cfg.descriptor == DescriptorKind::SeA;
  m_ = cfg.m();
  m_sub_ = cfg.axis_neuron;
  width_ = se_a_ ? 4 * m_ : m_;
  scale_ = 1.0 / static_cast<double>(cfg.nm());
  rows_.resize(nt);
  for (auto& r : rows_) r.resize(nn::kFitBlock * width_);
  atoms_.resize(nt);
  count_.assign(nt, 0);
  if (se_a_) g_a_.resize(nn::kFitBlock * width_);
  blocks_ = 0;
}

double* FitBlocks::push(int t, std::size_t i) {
  const std::size_t ut = static_cast<std::size_t>(t);
  const std::size_t slot = count_[ut]++;
  atoms_[ut][slot] = i;
  double* row = rows_[ut].data() + slot * width_;
  std::memset(row, 0, width_ * sizeof(double));
  return row;
}

const double* FitBlocks::evaluate(std::size_t t, const nn::FittingNet& fit, std::size_t rows) {
  double* d = rows_[t].data();
  if (se_a_) {
    descriptor_fit_block(fit, d, rows, m_, m_sub_, scale_, kernel_, g_a_.data(),
                         energy_.data());
    return g_a_.data();
  }
  // se_r: the rows are D. dE/dD overwrites them in place, as in
  // descriptor_fit_block.
  fit.forward_block(d, rows, kernel_.fit_ws, energy_.data());
  fit.backward(kernel_.fit_ws, d);
  return d;
}

std::size_t FitBlocks::bytes() const {
  std::size_t b = g_a_.capacity() + kernel_.d_flat.capacity();
  for (const auto& r : rows_) b += r.capacity();
  return b * sizeof(double) + kernel_.fit_ws.bytes();
}

void record_fit_block_cost(const nn::FittingNet& fit, std::size_t atoms, std::size_t blocks) {
  CostRegistry::instance().add(
      "fit.block", {4.0 * fit.flops_per_eval() * static_cast<double>(atoms),
                    fit.weight_bytes() * static_cast<double>(blocks), 0.0});
}

}  // namespace dp::core
