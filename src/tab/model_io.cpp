#include "tab/model_io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "common/binary_io.hpp"
#include "common/error.hpp"

namespace dp::tab {

namespace {
constexpr std::uint32_t kBundleMagic = 0x44504332;  // "DPC2"

}  // namespace

void save_compressed_model(const std::string& path, const TabulatedDP& tabulated) {
  std::ofstream os(path, std::ios::binary);
  DP_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  write_pod(os, kBundleMagic);
  const auto& spec = tabulated.spec();
  write_pod(os, spec.lo);
  write_pod(os, spec.hi);
  write_pod(os, spec.interval);
  tabulated.model().save(os);
  const auto n_tables = static_cast<std::int32_t>(tabulated.model().n_embedding_nets());
  write_pod<std::int32_t>(os, n_tables);
  for (const TabulatedEmbedding& t : tabulated.tables()) t.save(os);
}

CompressedModel CompressedModel::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DP_CHECK_MSG(is.is_open(), "cannot open " << path);
  BinaryReader r(is, path);
  r.check(r.pod<std::uint32_t>("magic") == kBundleMagic, "magic",
          "not a compressed-model bundle");
  TabulationSpec spec;
  spec.lo = r.pod<double>("table lo");
  spec.hi = r.pod<double>("table hi");
  spec.interval = r.pod<double>("table interval");
  r.check(std::isfinite(spec.lo) && std::isfinite(spec.hi) && spec.hi > spec.lo &&
              std::isfinite(spec.interval) && spec.interval > 0,
          "tabulation spec", "[", spec.lo, ", ", spec.hi, "] step ", spec.interval);

  CompressedModel out;
  out.model_ = std::make_unique<core::DPModel>(core::DPModel::load(is, path));
  const auto n_tables = r.pod<std::int32_t>("table count");
  r.check(n_tables >= 0 && static_cast<std::size_t>(n_tables) == out.model_->n_embedding_nets(),
          "table count", n_tables, " for ", out.model_->n_embedding_nets(), " embedding nets");
  std::vector<TabulatedEmbedding> tables;
  tables.reserve(static_cast<std::size_t>(n_tables));
  for (int t = 0; t < n_tables; ++t) tables.push_back(TabulatedEmbedding::load(is, path));
  out.tabulated_ = std::make_unique<TabulatedDP>(*out.model_, spec, std::move(tables));
  return out;
}

}  // namespace dp::tab
