#include "dp/descriptor.hpp"

#include <cstring>

#include "common/cost.hpp"
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

void FitBlocks::prepare(int ntypes, std::size_t m) {
  const std::size_t nt = static_cast<std::size_t>(ntypes);
  m_ = m;
  a_.resize(nt);
  for (auto& a : a_) a.resize(nn::kFitBlock * 4 * m);
  atoms_.resize(nt);
  count_.assign(nt, 0);
  g_a_.resize(nn::kFitBlock * 4 * m);
  blocks_ = 0;
}

std::size_t FitBlocks::push(int t, std::size_t i) {
  const std::size_t ut = static_cast<std::size_t>(t);
  const std::size_t slot = count_[ut]++;
  atoms_[ut][slot] = i;
  std::memset(a_mat(t, slot), 0, 4 * m_ * sizeof(double));
  return slot;
}

std::size_t FitBlocks::bytes() const {
  std::size_t b = g_a_.capacity() + kernel_.d_flat.capacity();
  for (const auto& a : a_) b += a.capacity();
  return b * sizeof(double) + kernel_.fit_ws.bytes();
}

void record_fit_block_cost(const nn::FittingNet& fit, std::size_t atoms, std::size_t blocks) {
  CostRegistry::instance().add(
      "fit.block", {4.0 * fit.flops_per_eval() * static_cast<double>(atoms),
                    fit.weight_bytes() * static_cast<double>(blocks), 0.0});
}

}  // namespace dp::core
