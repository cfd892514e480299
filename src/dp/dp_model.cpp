#include "dp/dp_model.hpp"

#include <cstdint>
#include <fstream>

#include "common/binary_io.hpp"
#include "common/rng.hpp"
#include "nn/serialize.hpp"

namespace dp::core {

DPModel::DPModel(ModelConfig config, std::uint64_t seed) : cfg_(std::move(config)) {
  cfg_.validate();
  Rng rng(seed);
  const int n_embed = cfg_.type_one_side ? cfg_.ntypes : cfg_.ntypes * cfg_.ntypes;
  embed_.reserve(static_cast<std::size_t>(n_embed));
  fit_.reserve(static_cast<std::size_t>(cfg_.ntypes));
  for (int t = 0; t < n_embed; ++t) {
    embed_.emplace_back(cfg_.embed_widths);
    embed_.back().init_random(rng);
  }
  for (int t = 0; t < cfg_.ntypes; ++t) {
    fit_.emplace_back(cfg_.descriptor_dim(), cfg_.fit_widths);
    fit_.back().init_random(rng);
  }
}

void DPModel::set_activation(nn::Activation act) {
  for (auto& e : embed_) e.set_activation(act);
  for (auto& f : fit_) f.set_activation(act);
}

void DPModel::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  DP_CHECK_MSG(os.is_open(), "cannot open " << path);
  save(os);
}

namespace {
constexpr std::uint32_t kModelMagic = 0x44504d31;  // "DPM1"
constexpr std::uint32_t kModelVersion = 3;  // v3: + descriptor kind
}  // namespace

void DPModel::save(std::ostream& os) const {
  write_pod(os, kModelMagic);
  write_pod(os, kModelVersion);
  write_pod(os, cfg_.rcut);
  write_pod(os, cfg_.rcut_smth);
  write_pod<std::int32_t>(os, cfg_.type_one_side ? 1 : 0);
  write_pod<std::int32_t>(os, static_cast<std::int32_t>(cfg_.descriptor));
  write_pod<std::int32_t>(os, cfg_.ntypes);
  for (int s : cfg_.sel) write_pod<std::int32_t>(os, s);
  write_pod<std::uint64_t>(os, cfg_.embed_widths.size());
  for (std::size_t w : cfg_.embed_widths) write_pod<std::uint64_t>(os, w);
  write_pod<std::uint64_t>(os, cfg_.axis_neuron);
  write_pod<std::uint64_t>(os, cfg_.fit_widths.size());
  for (std::size_t w : cfg_.fit_widths) write_pod<std::uint64_t>(os, w);
  for (const auto& e : embed_) nn::save(os, e);
  for (const auto& f : fit_) nn::save(os, f);
}

DPModel DPModel::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DP_CHECK_MSG(is.is_open(), "cannot open " << path);
  return load(is, path);
}

DPModel DPModel::load(std::istream& is, const std::string& source) {
  BinaryReader r(is, source);
  r.check(r.pod<std::uint32_t>("magic") == kModelMagic, "magic", "not a DP model file");
  const auto version = r.pod<std::uint32_t>("version");
  r.check(version == kModelVersion, "version", "unsupported DP model file version ", version);
  ModelConfig cfg;
  cfg.rcut = r.pod<double>("rcut");
  cfg.rcut_smth = r.pod<double>("rcut_smth");
  cfg.type_one_side = r.pod<std::int32_t>("type_one_side") != 0;
  const auto kind = r.pod<std::int32_t>("descriptor");
  r.check(kind == static_cast<std::int32_t>(DescriptorKind::SeA) ||
              kind == static_cast<std::int32_t>(DescriptorKind::SeR),
          "descriptor", "unknown kind ", kind);
  cfg.descriptor = static_cast<DescriptorKind>(kind);
  // Every count and width is bounded by the bytes left before it sizes
  // anything: one sel entry per type, and a width-w layer stores at least
  // its w biases.
  cfg.ntypes = static_cast<int>(r.count<std::int32_t>("ntypes", sizeof(std::int32_t)));
  cfg.sel.resize(static_cast<std::size_t>(cfg.ntypes));
  for (auto& s : cfg.sel) s = r.pod<std::int32_t>("sel");
  cfg.embed_widths.resize(r.count<std::uint64_t>("embed width count", sizeof(std::uint64_t)));
  for (auto& w : cfg.embed_widths) w = r.count<std::uint64_t>("embed width", sizeof(double));
  cfg.axis_neuron = r.pod<std::uint64_t>("axis_neuron");
  cfg.fit_widths.resize(r.count<std::uint64_t>("fit width count", sizeof(std::uint64_t)));
  for (auto& w : cfg.fit_widths) w = r.count<std::uint64_t>("fit width", sizeof(double));

  DPModel model;
  model.cfg_ = cfg;
  model.cfg_.validate();
  // The nets carry their own shape records; they must be the header's.
  const auto nt = static_cast<std::uint64_t>(cfg.ntypes);
  const std::uint64_t n_embed = cfg.type_one_side ? nt : nt * nt;
  r.require(n_embed + nt, 2 * sizeof(std::uint32_t), "net count");  // magic + version each
  for (std::uint64_t t = 0; t < n_embed; ++t) {
    model.embed_.push_back(nn::load_embedding(is, source));
    r.check(model.embed_.back().widths() == cfg.embed_widths, "embedding net",
            "widths differ from the header's");
  }
  for (int t = 0; t < cfg.ntypes; ++t) {
    model.fit_.push_back(nn::load_fitting(is, source));
    const auto& layers = model.fit_.back().layers();
    bool same = model.fit_.back().input_dim() == cfg.descriptor_dim() &&
                layers.size() == cfg.fit_widths.size() + 1;
    for (std::size_t l = 0; same && l < cfg.fit_widths.size(); ++l)
      same = layers[l].out_dim() == cfg.fit_widths[l];
    r.check(same, "fitting net", "shape differs from the header's");
  }
  return model;
}

}  // namespace dp::core
