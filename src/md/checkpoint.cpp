#include "md/checkpoint.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "common/error.hpp"

namespace dp::md {

namespace {
constexpr std::uint32_t kMagic = 0x44504d43;  // "DPMC"
constexpr std::uint32_t kVersion = 1;

template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <class T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DP_CHECK_MSG(static_cast<bool>(is), "truncated checkpoint");
  return v;
}

/// Bytes between the read position and the end of the file.
std::uint64_t bytes_left(std::istream& is) {
  const std::streamoff here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(here);
  DP_CHECK_MSG(here >= 0 && end >= here && is, "checkpoint is not seekable");
  return static_cast<std::uint64_t>(end - here);
}
}  // namespace

void save_checkpoint(const std::string& path, const Configuration& cfg, int step) {
  std::ofstream os(path, std::ios::binary);
  DP_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod<std::int32_t>(os, step);
  const Vec3 L = cfg.box.lengths();
  write_pod(os, L.x);
  write_pod(os, L.y);
  write_pod(os, L.z);
  write_pod<std::uint64_t>(os, cfg.atoms.mass_by_type.size());
  for (double m : cfg.atoms.mass_by_type) write_pod(os, m);
  write_pod<std::uint64_t>(os, cfg.atoms.size());
  for (std::size_t i = 0; i < cfg.atoms.size(); ++i) {
    write_pod<std::int32_t>(os, cfg.atoms.type[i]);
    write_pod(os, cfg.atoms.pos[i]);
    write_pod(os, cfg.atoms.vel[i]);
  }
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DP_CHECK_MSG(is.is_open(), "cannot open " << path);
  DP_CHECK_MSG(read_pod<std::uint32_t>(is) == kMagic, "not a checkpoint file: " << path);
  DP_CHECK_MSG(read_pod<std::uint32_t>(is) == kVersion, "unsupported checkpoint version");
  Checkpoint out;
  out.step = read_pod<std::int32_t>(is);
  const double lx = read_pod<double>(is);
  const double ly = read_pod<double>(is);
  const double lz = read_pod<double>(is);
  DP_CHECK_MSG(std::isfinite(lx) && std::isfinite(ly) && std::isfinite(lz),
               "non-finite box lengths in checkpoint " << path);
  out.config.box = Box(lx, ly, lz);
  // Bound both counts by the bytes the file can still hold before anything
  // is allocated, so a corrupt header cannot request an arbitrary resize.
  const auto ntypes = read_pod<std::uint64_t>(is);
  DP_CHECK_MSG(ntypes <= bytes_left(is) / sizeof(double),
               "checkpoint header (" << ntypes << " types) exceeds the file " << path);
  out.config.atoms.mass_by_type.resize(ntypes);
  for (double& m : out.config.atoms.mass_by_type) m = read_pod<double>(is);
  const auto n = read_pod<std::uint64_t>(is);
  constexpr std::uint64_t kAtomBytes = sizeof(std::int32_t) + 2 * sizeof(Vec3);
  DP_CHECK_MSG(n <= bytes_left(is) / kAtomBytes,
               "checkpoint header (" << n << " atoms) exceeds the file " << path);
  out.config.atoms.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.config.atoms.type[i] = read_pod<std::int32_t>(is);
    out.config.atoms.pos[i] = read_pod<Vec3>(is);
    out.config.atoms.vel[i] = read_pod<Vec3>(is);
  }
  out.config.atoms.validate();
  return out;
}

}  // namespace dp::md
