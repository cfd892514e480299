// Binary I/O of the tree's file formats (DP models, compressed bundles,
// tables, checkpoints): raw host-endian PODs, written by write_pod and read
// back by one bounded reader.
//
// A file supplies counts and widths that its loader sizes buffers from.
// BinaryReader checks each against the bytes the stream has left before
// anything is allocated, and every failure is a dp::Error that names the
// source (file or stream) and the field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace dp {

template <class T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

class BinaryReader {
 public:
  /// `source` names the file or stream in every error. The stream must be
  /// seekable: its end is located once, here.
  BinaryReader(std::istream& is, std::string source) : is_(is), source_(std::move(source)) {
    const std::streamoff here = is_.tellg();
    is_.seekg(0, std::ios::end);
    end_ = is_.tellg();
    is_.seekg(here);
    check(here >= 0 && end_ >= here && is_, "stream", "not seekable");
  }

  /// Bytes between the read position and the end of the stream.
  std::uint64_t bytes_left() {
    const std::streamoff here = is_.tellg();
    check(here >= 0 && here <= end_, "stream", "read position lost");
    return static_cast<std::uint64_t>(end_ - here);
  }

  void read(void* dst, std::size_t bytes, const char* field) {
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    check(static_cast<bool>(is_), field, "truncated");
  }

  template <class T>
  T pod(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    read(&v, sizeof(T), field);
    return v;
  }

  /// A count or width the file supplies as a T: at least `min`, and that
  /// many records of `record_bytes` each must fit in the bytes left.
  template <class T>
  std::uint64_t count(const char* field, std::uint64_t record_bytes, std::uint64_t min = 1) {
    static_assert(std::is_integral_v<T>);
    const T v = pod<T>(field);
    if constexpr (std::is_signed_v<T>) check(v >= 0, field, v, " is negative");
    const auto n = static_cast<std::uint64_t>(v);
    check(n >= min, field, n, " is below ", min);
    require(n, record_bytes, field);
    return n;
  }

  /// Fails unless `n` records of `record_bytes` each fit in the bytes left
  /// (n <= left / record_bytes cannot overflow, unlike n * record_bytes).
  void require(std::uint64_t n, std::uint64_t record_bytes, const char* field) {
    const std::uint64_t left = bytes_left();
    check(record_bytes == 0 || n <= left / record_bytes, field, n, " x ", record_bytes,
          " bytes exceeds the file (", left, " bytes left)");
  }

  /// Throws a dp::Error naming the source and `field`, with the streamed
  /// message, unless `ok`.
  template <class... Msg>
  void check(bool ok, const char* field, const Msg&... msg) const {
    if (ok) return;
    std::ostringstream os;
    os << source_ << ": " << field << ": ";
    (os << ... << msg);
    detail::throw_error(__FILE__, __LINE__, "bounded read", os.str());
  }

 private:
  std::istream& is_;
  std::string source_;
  std::streamoff end_ = 0;
};

}  // namespace dp
