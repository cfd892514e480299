#include "nn/embedding_net.hpp"

#include "common/error.hpp"

namespace dp::nn {

EmbeddingNet::EmbeddingNet(const std::vector<std::size_t>& widths, Activation act)
    : widths_(widths) {
  DP_CHECK_MSG(!widths.empty(), "embedding net needs at least one layer");
  std::size_t in = 1;
  for (std::size_t w : widths) {
    const Shortcut sc = (w == 2 * in) ? Shortcut::Concat : Shortcut::None;
    layers_.emplace_back(in, w, act, sc);
    in = w;
  }
}

void EmbeddingNet::init_random(Rng& rng) {
  for (auto& layer : layers_) layer.init_random(rng);
}

void EmbeddingNet::set_activation(Activation a) {
  for (auto& layer : layers_) layer.set_activation(a);
}

void EmbeddingNet::forward_batch(const double* s, std::size_t n, Matrix& g) const {
  Matrix x(n, 1);
  for (std::size_t i = 0; i < n; ++i) x(i, 0) = s[i];
  Matrix y;
  for (const auto& layer : layers_) {
    layer.forward_batch(x, y);
    std::swap(x, y);
  }
  g = std::move(x);
}

void EmbeddingNet::forward_batch_ws(const double* s, std::size_t n, Matrix& g,
                                    BatchWorkspace& ws) const {
  const std::size_t L = layers_.size();
  ws.inputs.resize(L);
  ws.acts.resize(L);
  ws.inputs[0].resize(n, 1);
  for (std::size_t i = 0; i < n; ++i) ws.inputs[0](i, 0) = s[i];
  for (std::size_t l = 0; l < L; ++l) {
    Matrix& out = (l + 1 < L) ? ws.inputs[l + 1] : g;
    layers_[l].forward_batch_ws(ws.inputs[l], out, ws.acts[l]);
  }
}

void EmbeddingNet::backward_batch(const BatchWorkspace& ws, const Matrix& g_g, double* g_s,
                                  BackwardScratch& scratch) const {
  const std::size_t L = layers_.size();
  DP_CHECK_MSG(ws.inputs.size() == L, "backward_batch without forward_batch_ws");
  // Layers alternate between the two scratch gradients, so a layer's input
  // gradient never aliases the output gradient it reads.
  const Matrix* g_out = &g_g;
  for (std::size_t l = L; l-- > 0;) {
    Matrix& g_in = (l % 2 == 0) ? scratch.grad_a : scratch.grad_b;
    layers_[l].backward_batch(*g_out, ws.acts[l], g_in, scratch.grad_u);
    g_out = &g_in;
  }
  for (std::size_t i = 0; i < g_out->rows(); ++i) g_s[i] = (*g_out)(i, 0);
}

void EmbeddingNet::eval(double s, double* g) const {
  AlignedVector<double> x(1, s), y;
  for (const auto& layer : layers_) {
    y.resize(layer.out_dim());
    layer.forward_row(x.data(), y.data());
    x = y;
  }
  for (std::size_t j = 0; j < x.size(); ++j) g[j] = x[j];
}

void EmbeddingNet::eval_jet(double s, double* g, double* dg, double* d2g) const {
  AlignedVector<double> x(1, s), dx(1, 1.0), d2x(1, 0.0);
  AlignedVector<double> y, dy, d2y;
  for (const auto& layer : layers_) {
    const std::size_t out = layer.out_dim();
    y.resize(out);
    dy.resize(out);
    d2y.resize(out);
    layer.forward_jet(x.data(), dx.data(), d2x.data(), y.data(), dy.data(), d2y.data());
    x = y;
    dx = dy;
    d2x = d2y;
  }
  for (std::size_t j = 0; j < x.size(); ++j) {
    g[j] = x[j];
    dg[j] = dx[j];
    d2g[j] = d2x[j];
  }
}

double EmbeddingNet::flops_per_scalar() const {
  // Multiply-add counted as one operation, matching the paper's
  // d1 + 10*d1^2 for the {d1, 2 d1, 4 d1} architecture.
  double flops = 0.0;
  for (const auto& layer : layers_)
    flops += static_cast<double>(layer.in_dim()) * static_cast<double>(layer.out_dim());
  return flops;
}

}  // namespace dp::nn
