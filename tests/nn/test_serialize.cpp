#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

namespace dp::nn {
namespace {

TEST(Serialize, EmbeddingRoundTrip) {
  EmbeddingNet net({4, 8, 16});
  Rng rng(1);
  net.init_random(rng);

  std::stringstream ss;
  save(ss, net);
  EmbeddingNet loaded = load_embedding(ss);

  std::vector<double> a(16), b(16);
  for (double s : {0.0, 0.3, 1.7}) {
    net.eval(s, a.data());
    loaded.eval(s, b.data());
    for (std::size_t j = 0; j < 16; ++j) EXPECT_DOUBLE_EQ(a[j], b[j]);
  }
}

TEST(Serialize, FittingRoundTrip) {
  FittingNet net(12, {20, 20, 20});
  Rng rng(2);
  net.init_random(rng);

  std::stringstream ss;
  save(ss, net);
  FittingNet loaded = load_fitting(ss);

  FittingNet::Workspace ws;
  std::vector<double> d(12);
  for (std::size_t i = 0; i < 12; ++i) d[i] = 0.1 * static_cast<double>(i) - 0.5;
  EXPECT_DOUBLE_EQ(net.forward(d.data(), ws), loaded.forward(d.data(), ws));
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream ss;
  ss.write("not a model at all, definitely", 30);
  EXPECT_THROW(load_embedding(ss), Error);
}

TEST(Serialize, TruncatedStreamRejected) {
  EmbeddingNet net({4, 8});
  Rng rng(4);
  net.init_random(rng);
  std::stringstream ss;
  save(ss, net);
  std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_embedding(cut), Error);
}

}  // namespace
}  // namespace dp::nn
