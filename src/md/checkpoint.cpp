#include "md/checkpoint.hpp"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace dp::md {

namespace {
constexpr std::uint32_t kMagic = 0x44504d43;  // "DPMC"
constexpr std::uint32_t kVersion = 1;

template <class T>
void write_pod(std::FILE* f, const T& v) {
  // Errors are sticky: save_checkpoint checks ferror() once, after fflush.
  (void)std::fwrite(&v, sizeof(T), 1, f);
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
  // Write <path>.tmp, make it durable, then rename it over <path>: a save
  // that fails or dies half-way leaves the previous checkpoint as it was.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  DP_CHECK_MSG(f != nullptr, "cannot open " << tmp << " for writing: " << std::strerror(errno));
  write_pod(f, kMagic);
  write_pod(f, kVersion);
  write_pod<std::int32_t>(f, step);
  const Vec3 L = cfg.box.lengths();
  write_pod(f, L.x);
  write_pod(f, L.y);
  write_pod(f, L.z);
  write_pod<std::uint64_t>(f, cfg.atoms.mass_by_type.size());
  for (double m : cfg.atoms.mass_by_type) write_pod(f, m);
  write_pod<std::uint64_t>(f, cfg.atoms.size());
  for (std::size_t i = 0; i < cfg.atoms.size(); ++i) {
    write_pod<std::int32_t>(f, cfg.atoms.type[i]);
    write_pod(f, cfg.atoms.pos[i]);
    write_pod(f, cfg.atoms.vel[i]);
  }
  const bool written = std::fflush(f) == 0 && std::ferror(f) == 0 && ::fsync(::fileno(f)) == 0;
  const int err = errno;  // of the first failure; fclose must not overwrite it
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    const char* why = std::strerror(written ? errno : err);
    (void)std::remove(tmp.c_str());
    DP_CHECK_MSG(false, "cannot write checkpoint " << path << ": " << why);
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
