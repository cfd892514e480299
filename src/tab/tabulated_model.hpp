// A DP model with every embedding net tabulated — the artifact produced by
// the paper's model-compression step ("dp compress").
#pragma once

#include <vector>

#include "dp/dp_model.hpp"
#include "tab/table.hpp"

namespace dp::tab {

class TabulatedDP {
 public:
  TabulatedDP(const core::DPModel& model, const TabulationSpec& spec);

  /// Adopts pre-built (deserialized) tables instead of sampling the nets.
  TabulatedDP(const core::DPModel& model, const TabulationSpec& spec,
              std::vector<TabulatedEmbedding> tables);

  const core::DPModel& model() const { return model_; }
  const TabulationSpec& spec() const { return spec_; }
  /// Table for neighbor type t (one-side mode only).
  const TabulatedEmbedding& table(int t) const {
    DP_CHECK_MSG(model_.config().type_one_side, "pair-mode: use table_pair()");
    return tables_[static_cast<std::size_t>(t)];
  }
  /// Table for a (center, neighbor) type pair; works in both modes.
  const TabulatedEmbedding& table_pair(int center, int neighbor) const {
    return tables_[model_.pair_index(center, neighbor)];
  }
  /// Every table, in DPModel::pair_index order.
  const std::vector<TabulatedEmbedding>& tables() const { return tables_; }
  /// Total shipped table size — the paper's interval-vs-model-size tradeoff.
  std::size_t total_bytes() const;

  /// Total out-of-domain evaluations across all tables — the raw signal
  /// behind the health.extrapolation_rate watchdog.
  std::size_t extrapolations() const {
    std::size_t n = 0;
    for (const auto& t : tables_) n += t.extrapolations();
    return n;
  }

  /// Upper bound of the physical s(r) domain: s is monotone decreasing in r,
  /// so the maximum is attained at the closest physically possible approach
  /// r_min.
  static double s_max(const core::ModelConfig& cfg, double r_min);

 private:
  const core::DPModel& model_;
  TabulationSpec spec_;
  std::vector<TabulatedEmbedding> tables_;
};

}  // namespace dp::tab
