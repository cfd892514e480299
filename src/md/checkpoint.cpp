#include "md/checkpoint.hpp"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/binary_io.hpp"
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
  BinaryReader r(is, path);
  r.check(r.pod<std::uint32_t>("magic") == kMagic, "magic", "not a checkpoint file");
  const auto version = r.pod<std::uint32_t>("version");
  r.check(version == kVersion, "version", "unsupported checkpoint version ", version);
  Checkpoint out;
  out.step = r.pod<std::int32_t>("step");
  const double lx = r.pod<double>("box x");
  const double ly = r.pod<double>("box y");
  const double lz = r.pod<double>("box z");
  r.check(std::isfinite(lx) && std::isfinite(ly) && std::isfinite(lz), "box",
          "non-finite box lengths");
  out.config.box = Box(lx, ly, lz);
  // Bound both counts by the bytes the file can still hold before anything
  // is allocated, so a corrupt header cannot request an arbitrary resize.
  out.config.atoms.mass_by_type.resize(r.count<std::uint64_t>("type count", sizeof(double), 0));
  for (double& m : out.config.atoms.mass_by_type) m = r.pod<double>("mass");
  constexpr std::uint64_t kAtomBytes = sizeof(std::int32_t) + 2 * sizeof(Vec3);
  const auto n = r.count<std::uint64_t>("atom count", kAtomBytes, 0);
  out.config.atoms.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.config.atoms.type[i] = r.pod<std::int32_t>("atom type");
    out.config.atoms.pos[i] = r.pod<Vec3>("atom position");
    out.config.atoms.vel[i] = r.pod<Vec3>("atom velocity");
  }
  out.config.atoms.validate();
  return out;
}

}  // namespace dp::md
