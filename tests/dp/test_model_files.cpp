// Loading damaged files: every reader (DP model, compressed bundle, table,
// checkpoint) bounds what a file claims by the bytes it holds, and fails
// with a dp::Error that names the file and the field (common/binary_io.hpp),
// never with an allocator exception or a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/binary_io.hpp"
#include "dp/dp_model.hpp"
#include "md/checkpoint.hpp"
#include "md/lattice.hpp"
#include "nn/serialize.hpp"
#include "tab/model_io.hpp"

namespace dp {
namespace {

using core::DPModel;
using core::ModelConfig;

std::string tiny_model_bytes() {
  std::stringstream ss;
  DPModel(ModelConfig::tiny(), 3).save(ss);
  return ss.str();
}

/// Bytes of a saved model up to its first weight: the model header, then
/// the first embedding record's header and its first layer header.
std::size_t model_header_bytes(const ModelConfig& c) {
  const std::size_t ne = c.embed_widths.size(), nf = c.fit_widths.size();
  return 36 + 4 * static_cast<std::size_t>(c.ntypes) + 16 + 8 * ne + 8 + 8 * nf +  // model
         16 + 8 * ne + 24;                                                          // net
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

/// `dpmd info` on a tiny model with `v` written at byte `offset` must fail
/// with a dp::Error naming the file and `field`.
template <class T>
void expect_crafted_model_rejected(std::size_t offset, T v, const std::string& field) {
  std::string bytes = tiny_model_bytes();
  std::memcpy(bytes.data() + offset, &v, sizeof v);
  const std::string path = write_temp("dp_crafted.dpm", bytes);
  try {
    DPModel::load(path);
    ADD_FAILURE() << "loaded a crafted model (" << field << ")";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ": " + field + ":"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// Header offsets of a one-type model (DPModel::save): ntypes, then one sel
// entry, the embed width count and the first embed width.
TEST(ModelFile, NegativeTypeCountRejected) {
  expect_crafted_model_rejected<std::int32_t>(32, -1, "ntypes");
}

TEST(ModelFile, WidthCountBeyondFileRejected) {
  expect_crafted_model_rejected<std::uint64_t>(40, std::uint64_t{1} << 60, "embed width count");
}

TEST(ModelFile, WideEmbeddingLayerRejected) {
  expect_crafted_model_rejected<std::uint64_t>(48, std::uint64_t{1} << 40, "embed width");
}

TEST(ModelFile, LayersBeyondFileRejectedBeforeAllocating) {
  // Each width fits in the bytes left, their product does not: the record
  // must fail on its layer bound before it builds the 8 MB layer.
  std::stringstream ss;
  for (const std::uint32_t v : {0x44504d44u, 1u}) write_pod(ss, v);  // magic, version
  for (const std::uint64_t v : {2u, 1024u, 1024u}) write_pod(ss, v);  // widths {1024, 1024}
  ss << std::string(64 * 1024, '\0');
  try {
    nn::load_embedding(ss, "net");
    ADD_FAILURE() << "built a net larger than its record";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("net: embedding layers: "), std::string::npos)
        << e.what();
  }
}

/// Every truncation of `bytes` throws dp::Error: at each of its first
/// `header` bytes and at 64 points through the rest. Every single-bit flip
/// in those header bytes either loads or throws dp::Error.
template <class Load>
void sweep(const std::string& bytes, std::size_t header, Load&& load) {
  ASSERT_LT(header, bytes.size());
  EXPECT_NO_THROW(load(bytes));
  const std::size_t stride = std::max<std::size_t>(1, (bytes.size() - header) / 64);
  for (std::size_t cut = 0; cut < bytes.size(); cut += cut < header ? 1 : stride)
    EXPECT_THROW(load(bytes.substr(0, cut)), Error) << "truncated at " << cut;
  for (std::size_t i = 0; i < header; ++i)
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      try {
        load(flipped);
      } catch (const Error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "byte " << i << " bit " << bit << ": " << e.what();
      }
    }
}

/// sweep() over what `save` writes to a file, loading each variant back
/// through a file (these loaders take paths).
template <class Save, class Load>
void sweep_file(const std::string& name, std::size_t header, Save&& save, Load&& load) {
  const std::string path = ::testing::TempDir() + "/" + name;
  save(path);
  std::ifstream is(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  sweep(bytes, header, [&](const std::string& b) { load(write_temp(name, b)); });
  std::remove(path.c_str());
}

TEST(FileSweep, Model) {
  sweep(tiny_model_bytes(), model_header_bytes(ModelConfig::tiny()), [](const std::string& b) {
    std::stringstream ss(b);
    DPModel::load(ss);
  });
}

TEST(FileSweep, Table) {
  DPModel model(ModelConfig::tiny(), 4);
  std::stringstream ss;
  tab::TabulatedEmbedding(model.embedding(0), {0.0, 1.0, 0.05}).save(ss);
  sweep(ss.str(), 36, [](const std::string& b) {  // magic, M, n, lo, hi
    std::stringstream in(b);
    tab::TabulatedEmbedding::load(in);
  });
}

TEST(FileSweep, CompressedBundle) {
  DPModel model(ModelConfig::tiny(), 5);
  const tab::TabulatedDP tabulated(model, {0.0, 1.0, 0.05});
  sweep_file(
      "dp_sweep.dpc", 28 + model_header_bytes(ModelConfig::tiny()),  // magic, spec, model
      [&](const std::string& p) { tab::save_compressed_model(p, tabulated); },
      [](const std::string& p) { tab::CompressedModel::load(p); });
}

TEST(FileSweep, Checkpoint) {
  sweep_file(
      "dp_sweep.ck", 60,  // magic, version, step, box, one mass, atom count
      [](const std::string& p) {
        md::save_checkpoint(p, md::make_fcc(2, 2, 2, 3.634, 63.546, 0.1, 6), 7);
      },
      [](const std::string& p) { md::load_checkpoint(p); });
}

}  // namespace
}  // namespace dp
