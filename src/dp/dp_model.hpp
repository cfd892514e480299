// A Deep Potential model: configuration + one embedding net per neighbor
// type + one fitting net per center type.
//
// The networks are deterministically initialized from a seed; this library
// reproduces the paper's *inference optimizations*, whose behaviour depends
// on network shape and smoothness, not on trained weights (DESIGN.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dp/model_config.hpp"
#include "nn/embedding_net.hpp"
#include "nn/fitting_net.hpp"

namespace dp::core {

class DPModel {
 public:
  DPModel() = default;
  explicit DPModel(ModelConfig config, std::uint64_t seed = 2022);

  const ModelConfig& config() const { return cfg_; }

  /// Embedding net applied to neighbors of type t (one-side mode only).
  const nn::EmbeddingNet& embedding(int t) const {
    DP_CHECK_MSG(cfg_.type_one_side, "pair-mode model: use embedding_pair()");
    return embed_[static_cast<std::size_t>(t)];
  }
  nn::EmbeddingNet& embedding(int t) {
    DP_CHECK_MSG(cfg_.type_one_side, "pair-mode model: use embedding_pair()");
    return embed_[static_cast<std::size_t>(t)];
  }

  /// Embedding net for a (center type, neighbor type) pair; works in both
  /// modes (one-side ignores the center type).
  const nn::EmbeddingNet& embedding_pair(int center, int neighbor) const {
    return embed_[pair_index(center, neighbor)];
  }
  /// Index into the per-pair net/table arrays.
  std::size_t pair_index(int center, int neighbor) const {
    return cfg_.type_one_side
               ? static_cast<std::size_t>(neighbor)
               : static_cast<std::size_t>(center) * static_cast<std::size_t>(cfg_.ntypes) +
                     static_cast<std::size_t>(neighbor);
  }
  std::size_t n_embedding_nets() const { return embed_.size(); }

  /// Fitting net of center type t.
  const nn::FittingNet& fitting(int t) const { return fit_[static_cast<std::size_t>(t)]; }

  /// Switch every network to the tabulated-tanh activation (Fig 8 "other
  /// optimizations" step on A64FX).
  void set_activation(nn::Activation act);

  void save(const std::string& path) const;
  static DPModel load(const std::string& path);
  void save(std::ostream& os) const;
  /// `source` names the stream in load errors (common/binary_io.hpp).
  static DPModel load(std::istream& is, const std::string& source = "DP model stream");

 private:
  ModelConfig cfg_;
  std::vector<nn::EmbeddingNet> embed_;  // per neighbor type
  std::vector<nn::FittingNet> fit_;      // per center type
};

}  // namespace dp::core
