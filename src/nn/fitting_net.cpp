#include "nn/fitting_net.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dp::nn {

FittingNet::FittingNet(std::size_t in_dim, const std::vector<std::size_t>& hidden,
                       Activation act)
    : in_dim_(in_dim) {
  DP_CHECK(in_dim > 0);
  std::size_t in = in_dim;
  for (std::size_t w : hidden) {
    const Shortcut sc = (w == in) ? Shortcut::Identity : Shortcut::None;
    layers_.emplace_back(in, w, act, sc);
    in = w;
  }
  layers_.emplace_back(in, 1, Activation::Linear, Shortcut::None);
}

void FittingNet::init_random(Rng& rng) {
  for (auto& layer : layers_) layer.init_random(rng);
}

void FittingNet::set_activation(Activation a) {
  // The final layer stays linear: it is the energy read-out.
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) layers_[l].set_activation(a);
}

void FittingNet::ensure_workspace(Workspace& ws, std::size_t rows) const {
  auto grow = [](AlignedVector<double>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
  };
  const std::size_t L = layers_.size();
  if (ws.outs.size() < L) ws.outs.resize(L);
  if (ws.acts.size() < L) ws.acts.resize(L);
  // Gradient rows are at most one layer output wide: the layer-0 input
  // gradient goes straight to the caller's g_d.
  std::size_t widest = 0;
  for (std::size_t l = 0; l < L; ++l) {
    const std::size_t w = layers_[l].out_dim();
    grow(ws.outs[l], rows * w);
    grow(ws.acts[l], rows * w);
    widest = std::max(widest, w);
  }
  grow(ws.grad_a, rows * widest);
  grow(ws.grad_b, rows * widest);
  grow(ws.grad_u, rows * widest);
}

std::size_t FittingNet::Workspace::bytes() const {
  std::size_t b = grad_a.capacity() + grad_b.capacity() + grad_u.capacity();
  for (const auto& v : outs) b += v.capacity();
  for (const auto& v : acts) b += v.capacity();
  return b * sizeof(double);
}

double FittingNet::forward(const double* d, Workspace& ws) const {
  double energy = 0.0;
  forward_block(d, 1, ws, &energy);
  return energy;
}

void FittingNet::forward_block(const double* d, std::size_t rows, Workspace& ws,
                               double* energy) const {
  DP_CHECK(rows > 0);
  ensure_workspace(ws, rows);
  ws.rows = rows;
  const double* x = d;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].forward_rows(x, rows, ws.outs[l].data(), ws.acts[l].data());
    x = ws.outs[l].data();
  }
  // The read-out layer is one wide: its output rows are the energies.
  std::copy(x, x + rows, energy);
}

void FittingNet::backward(const Workspace& ws, double* g_d) const {
  const std::size_t L = layers_.size();
  DP_CHECK_MSG(ws.rows > 0 && ws.acts.size() >= L, "backward() without a preceding forward()");
  const std::size_t rows = ws.rows;
  double* g_out = ws.grad_a.data();
  double* g_in = ws.grad_b.data();
  std::fill(g_out, g_out + rows, 1.0);  // dE/dE per row
  for (std::size_t l = L; l-- > 0;) {
    double* dst = l == 0 ? g_d : g_in;
    layers_[l].backward_rows(g_out, ws.acts[l].data(), rows, dst, ws.grad_u.data());
    std::swap(g_out, g_in);
  }
}

double FittingNet::flops_per_eval() const {
  double flops = 0.0;
  for (const auto& layer : layers_)
    flops += static_cast<double>(layer.in_dim()) * static_cast<double>(layer.out_dim());
  return flops;
}

double FittingNet::weight_bytes() const {
  double bytes = 0.0;
  for (const auto& layer : layers_)
    bytes += static_cast<double>((layer.in_dim() + 1) * layer.out_dim()) * sizeof(double);
  return bytes;
}

}  // namespace dp::nn
