// An independent reference for the blocked table walk: a double table's
// coefficients read back channel-major ("AoS", [(interval * M + channel) * 6
// + k]) from its save() stream, rounded to the storage type C as the
// narrowing constructor rounds them, and evaluated channel by channel with
// the fma Horner sequence of the kernels. Every level's walk must match it
// bitwise. reload_tables() round-trips tables through that stream.
#pragma once

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "tab/tabulated_model.hpp"

namespace dp::table_ref {

template <class C>
class AosReference {
 public:
  using Real = simd::TableReal<C>;

  AosReference(const tab::TabulatedEmbedding& ref, const tab::Table<C>& table) : table_(table) {
    std::stringstream ss;
    ref.save(ss);
    ss.seekg(sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t) + 2 * sizeof(double));
    std::vector<double> aos(ref.n_intervals() * ref.output_dim() * 6);
    ss.read(reinterpret_cast<char*>(aos.data()),
            static_cast<std::streamsize>(aos.size() * sizeof(double)));
    for (double x : aos)
      coef_.push_back(tab::Table<C>::kDouble ? x : Real(C(static_cast<float>(x))));
  }

  void operator()(Real s, Real* g, Real* dg) const {
    const std::size_t n = table_.n_intervals(), m = table_.output_dim();
    const Real lo = table_.lo(), h = table_.interval(), u = (s - lo) * (Real(1) / h);
    const std::size_t i = u < Real(0) ? 0 : u >= Real(n) ? n - 1 : static_cast<std::size_t>(u);
    const Real t = s - (lo + h * static_cast<Real>(i));
    for (std::size_t ch = 0; ch < m; ++ch) {
      const Real* c = coef_.data() + (i * m + ch) * 6;
      g[ch] = std::fma(
          t, std::fma(t, std::fma(t, std::fma(t, std::fma(t, c[5], c[4]), c[3]), c[2]), c[1]),
          c[0]);
      dg[ch] = std::fma(
          t, std::fma(t, std::fma(t, std::fma(t, 5 * c[5], 4 * c[4]), 3 * c[3]), 2 * c[2]),
          c[1]);
    }
  }

 private:
  const tab::Table<C>& table_;
  std::vector<Real> coef_;
};

/// The tables of `tab`, saved and loaded back.
inline std::vector<tab::TabulatedEmbedding> reload_tables(const tab::TabulatedDP& tab) {
  std::vector<tab::TabulatedEmbedding> out;
  for (const tab::TabulatedEmbedding& t : tab.tables()) {
    std::stringstream ss;
    t.save(ss);
    out.push_back(tab::TabulatedEmbedding::load(ss));
  }
  return out;
}

}  // namespace dp::table_ref
