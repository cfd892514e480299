// Binary (de)serialization of networks — the stand-in for DeePMD-kit's
// frozen-model files. Format: little-endian, magic + version header, then
// layer records (dims, activation, shortcut, weights, bias).
#pragma once

#include <iosfwd>
#include <string>

#include "nn/embedding_net.hpp"
#include "nn/fitting_net.hpp"

namespace dp::nn {

void save(std::ostream& os, const EmbeddingNet& net);
void save(std::ostream& os, const FittingNet& net);

/// `source` names the stream in load errors (common/binary_io.hpp).
EmbeddingNet load_embedding(std::istream& is, const std::string& source = "network stream");
FittingNet load_fitting(std::istream& is, const std::string& source = "network stream");

void save_to_file(const std::string& path, const EmbeddingNet& e, const FittingNet& f);
void load_from_file(const std::string& path, EmbeddingNet& e, FittingNet& f);

}  // namespace dp::nn
