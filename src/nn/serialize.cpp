#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>

#include "common/binary_io.hpp"
#include "common/error.hpp"

namespace dp::nn {

namespace {

constexpr std::uint32_t kMagic = 0x44504d44;  // "DMPD"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kLayerHeaderBytes = 2 * sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t);

void write_layer(std::ostream& os, const DenseLayer& layer) {
  write_pod<std::uint64_t>(os, layer.in_dim());
  write_pod<std::uint64_t>(os, layer.out_dim());
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(layer.activation()));
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(layer.shortcut()));
  os.write(reinterpret_cast<const char*>(layer.weights().data()),
           static_cast<std::streamsize>(layer.weights().size() * sizeof(double)));
  os.write(reinterpret_cast<const char*>(layer.bias().data()),
           static_cast<std::streamsize>(layer.bias().size() * sizeof(double)));
}

void read_header(BinaryReader& r) {
  r.check(r.pod<std::uint32_t>("magic") == kMagic, "magic", "not a network record");
  const auto version = r.pod<std::uint32_t>("version");
  r.check(version == kVersion, "version", "unsupported network version ", version);
}

/// Fails unless the layer records of a net with these widths, fed by an
/// `in`-wide input, fit in the bytes left: checked before the net is built.
/// Summed in double, so a crafted shape cannot wrap the total.
void require_layers(BinaryReader& r, double in, const std::vector<std::size_t>& widths,
                    const char* field) {
  double bytes = 0.0;
  for (const std::size_t w : widths) {
    bytes += kLayerHeaderBytes + (in + 1.0) * static_cast<double>(w) * sizeof(double);
    in = static_cast<double>(w);
  }
  const std::uint64_t left = r.bytes_left();
  r.check(bytes <= static_cast<double>(left), field, bytes, " bytes exceed the file (", left,
          " bytes left)");
}

void read_layer_into(BinaryReader& r, DenseLayer& layer) {
  const auto in = r.pod<std::uint64_t>("layer input width");
  const auto out = r.pod<std::uint64_t>("layer output width");
  r.check(in == layer.in_dim() && out == layer.out_dim(), "layer shape", in, " x ", out,
          " differs from the header's ", layer.in_dim(), " x ", layer.out_dim());
  const auto act = r.pod<std::uint32_t>("activation");
  r.check(act <= static_cast<std::uint32_t>(Activation::Linear), "activation", "unknown ", act);
  const auto sc = r.pod<std::uint32_t>("shortcut");
  r.check(sc == static_cast<std::uint32_t>(layer.shortcut()), "shortcut",
          "differs from the widths' ", static_cast<std::uint32_t>(layer.shortcut()));
  layer.set_activation(static_cast<Activation>(act));
  r.read(layer.weights().data(), layer.weights().size() * sizeof(double), "weights");
  r.read(layer.bias().data(), layer.bias().size() * sizeof(double), "bias");
}

}  // namespace

void save(std::ostream& os, const EmbeddingNet& net) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod<std::uint64_t>(os, net.widths().size());
  for (std::size_t w : net.widths()) write_pod<std::uint64_t>(os, w);
  for (const auto& layer : net.layers()) write_layer(os, layer);
}

void save(std::ostream& os, const FittingNet& net) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod<std::uint64_t>(os, net.input_dim());
  // hidden widths = all layers except the final linear read-out
  write_pod<std::uint64_t>(os, net.layers().size() - 1);
  for (std::size_t l = 0; l + 1 < net.layers().size(); ++l)
    write_pod<std::uint64_t>(os, net.layers()[l].out_dim());
  for (const auto& layer : net.layers()) write_layer(os, layer);
}

EmbeddingNet load_embedding(std::istream& is, const std::string& source) {
  BinaryReader r(is, source);
  read_header(r);
  std::vector<std::size_t> widths(
      r.count<std::uint64_t>("embedding layer count", sizeof(std::uint64_t)));
  for (auto& w : widths) w = r.count<std::uint64_t>("embedding width", sizeof(double));
  require_layers(r, 1, widths, "embedding layers");
  EmbeddingNet net(widths);
  for (auto& layer : net.layers()) read_layer_into(r, layer);
  return net;
}

FittingNet load_fitting(std::istream& is, const std::string& source) {
  BinaryReader r(is, source);
  read_header(r);
  const auto in_dim = r.count<std::uint64_t>("fitting input width", sizeof(double));
  std::vector<std::size_t> hidden(
      r.count<std::uint64_t>("fitting hidden layer count", sizeof(std::uint64_t), 0));
  for (auto& w : hidden) w = r.count<std::uint64_t>("fitting width", sizeof(double));
  std::vector<std::size_t> widths = hidden;
  widths.push_back(1);  // the linear read-out
  require_layers(r, static_cast<double>(in_dim), widths, "fitting layers");
  FittingNet net(in_dim, hidden);
  for (auto& layer : net.layers()) read_layer_into(r, layer);
  return net;
}

void save_to_file(const std::string& path, const EmbeddingNet& e, const FittingNet& f) {
  std::ofstream os(path, std::ios::binary);
  DP_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save(os, e);
  save(os, f);
}

void load_from_file(const std::string& path, EmbeddingNet& e, FittingNet& f) {
  std::ifstream is(path, std::ios::binary);
  DP_CHECK_MSG(is.is_open(), "cannot open " << path << " for reading");
  e = load_embedding(is, path);
  f = load_fitting(is, path);
}

}  // namespace dp::nn
