#include "tab/model_io.hpp"

#include <cstdint>
#include <fstream>

#include "common/error.hpp"

namespace dp::tab {

namespace {
constexpr std::uint32_t kBundleMagic = 0x44504332;  // "DPC2"

template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <class T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DP_CHECK_MSG(static_cast<bool>(is), "truncated compressed-model file");
  return v;
}
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
  DP_CHECK_MSG(read_pod<std::uint32_t>(is) == kBundleMagic,
               "not a compressed-model bundle: " << path);
  TabulationSpec spec;
  spec.lo = read_pod<double>(is);
  spec.hi = read_pod<double>(is);
  spec.interval = read_pod<double>(is);

  CompressedModel out;
  out.model_ = std::make_unique<core::DPModel>(core::DPModel::load(is));
  const auto n_tables = read_pod<std::int32_t>(is);
  DP_CHECK(static_cast<std::size_t>(n_tables) == out.model_->n_embedding_nets());
  std::vector<TabulatedEmbedding> tables;
  tables.reserve(static_cast<std::size_t>(n_tables));
  for (int t = 0; t < n_tables; ++t) tables.push_back(TabulatedEmbedding::load(is));
  out.tabulated_ = std::make_unique<TabulatedDP>(*out.model_, spec, std::move(tables));
  return out;
}

}  // namespace dp::tab
