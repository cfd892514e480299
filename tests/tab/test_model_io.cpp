#include "tab/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "fused/fused_model.hpp"
#include "md/lattice.hpp"

namespace dp::tab {
namespace {

using core::DPModel;
using core::ModelConfig;

TEST(TableIo, StreamRoundTripIsBitIdentical) {
  nn::EmbeddingNet net({4, 8, 16});
  Rng rng(1);
  net.init_random(rng);
  TabulatedEmbedding table(net, {0.0, 1.5, 0.02});

  std::stringstream ss;
  table.save(ss);
  TabulatedEmbedding loaded = TabulatedEmbedding::load(ss);

  EXPECT_EQ(loaded.output_dim(), table.output_dim());
  EXPECT_EQ(loaded.n_intervals(), table.n_intervals());
  EXPECT_DOUBLE_EQ(loaded.interval(), table.interval());
  std::vector<double> a(16), b(16), da(16), db(16);
  Rng probe(2);
  for (int k = 0; k < 100; ++k) {
    const double s = probe.uniform(0.0, 1.5);
    table.eval_with_deriv(s, a.data(), da.data());
    loaded.eval_with_deriv(s, b.data(), db.data());
    for (int ch = 0; ch < 16; ++ch) {
      EXPECT_DOUBLE_EQ(a[ch], b[ch]);
      EXPECT_DOUBLE_EQ(da[ch], db[ch]);
    }
  }
  // load() re-blocks the channel-major stream; saving again writes it back
  // byte for byte.
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(again.str(), ss.str());
}

TEST(TableIo, BadMagicRejected) {
  std::stringstream ss;
  ss.write("garbage header data", 19);
  EXPECT_THROW(TabulatedEmbedding::load(ss), Error);
}

/// A table stream: header (magic, M, n, lo, hi) and `coefs` doubles.
std::string table_stream(std::uint64_t m, std::uint64_t n, std::size_t coefs) {
  std::stringstream ss;
  const std::uint32_t magic = 0x44505442;  // "DPTB"
  const double lo = 0.0, hi = 1.0;
  ss.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  ss.write(reinterpret_cast<const char*>(&m), sizeof(m));
  ss.write(reinterpret_cast<const char*>(&n), sizeof(n));
  ss.write(reinterpret_cast<const char*>(&lo), sizeof(lo));
  ss.write(reinterpret_cast<const char*>(&hi), sizeof(hi));
  const std::vector<double> payload(coefs, 0.5);
  ss.write(reinterpret_cast<const char*>(payload.data()),
           static_cast<std::streamsize>(coefs * sizeof(double)));
  return ss.str();
}

TEST(TableIo, HeaderBeyondTheStreamRejectedBeforeAllocating) {
  const auto load = [](const std::string& bytes) {
    std::stringstream ss(bytes);
    return TabulatedEmbedding::load(ss);
  };
  // n * M * 6 wraps to 0 in 64 bits: must not size the table from it.
  EXPECT_THROW(load(table_stream(std::uint64_t{1} << 63, 1, 0)), Error);
  // A plausible product far beyond the bytes present.
  EXPECT_THROW(load(table_stream(128, std::uint64_t{1} << 40, 6)), Error);
  // A truncated payload: one interval of two.
  EXPECT_THROW(load(table_stream(16, 2, 16 * 6)), Error);
  // The same header with the full payload loads.
  EXPECT_EQ(load(table_stream(16, 2, 2 * 16 * 6)).n_intervals(), 2u);
}

TEST(CompressedModelIo, BundleRoundTripMatchesForces) {
  DPModel model(ModelConfig::tiny(2), 5);
  TabulationSpec spec{0.0, TabulatedDP::s_max(model.config(), 0.9), 0.01};
  TabulatedDP tabulated(model, spec);

  const std::string path = ::testing::TempDir() + "/dp_bundle_test.dpc";
  save_compressed_model(path, tabulated);
  auto bundle = CompressedModel::load(path);

  EXPECT_EQ(bundle.model().config().ntypes, 2);
  EXPECT_EQ(bundle.tabulated().total_bytes(), tabulated.total_bytes());

  // Forces from the original and the loaded bundle are bit-identical.
  auto sys = md::make_water(1, 1, 1, 6);
  fused::FusedDP original(tabulated);
  fused::FusedDP loaded(bundle.tabulated());
  md::NeighborList nl(original.cutoff(), 0.5);
  nl.build(sys.box, sys.atoms.pos);
  md::Atoms atoms_a = sys.atoms;
  md::Atoms atoms_b = sys.atoms;
  EXPECT_DOUBLE_EQ(original.compute(sys.box, atoms_a, nl).energy,
                   loaded.compute(sys.box, atoms_b, nl).energy);
  for (std::size_t i = 0; i < atoms_a.size(); ++i)
    EXPECT_DOUBLE_EQ(norm(atoms_a.force[i] - atoms_b.force[i]), 0.0);
  std::remove(path.c_str());
}

TEST(CompressedModelIo, PrebuiltTableCtorValidates) {
  DPModel model(ModelConfig::tiny(2), 7);
  TabulationSpec spec{0.0, 1.0, 0.05};
  // Wrong table count.
  std::vector<TabulatedEmbedding> one;
  one.emplace_back(model.embedding(0), spec);
  EXPECT_THROW(TabulatedDP(model, spec, std::move(one)), Error);
}

TEST(CompressedModelIo, MissingFileThrows) {
  EXPECT_THROW(CompressedModel::load("/nonexistent/bundle.dpc"), Error);
}

}  // namespace
}  // namespace dp::tab
