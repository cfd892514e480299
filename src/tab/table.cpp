#include "tab/table.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "tab/poly5.hpp"

namespace dp::tab {

template <class C>
void Table<C>::shape(std::size_t m, std::size_t n, Real lo, Real hi, Real h) {
  m_ = m;
  nblk_ = (m + simd::kTableLane - 1) / simd::kTableLane;
  n_ = n;
  lo_ = lo;
  hi_ = hi;
  h_ = h;
  inv_h_ = Real(1) / h;
  coef_.assign(n_ * nblk_ * 6 * simd::kTableLane, C(0));
}

template <class C>
Table<C>::Table(const nn::EmbeddingNet& net, const TabulationSpec& spec)
  requires kDouble
{
  DP_CHECK(spec.hi > spec.lo && spec.interval > 0.0);
  const auto n =
      static_cast<std::size_t>(std::ceil((spec.hi - spec.lo) / spec.interval - 1e-12));
  DP_CHECK(n >= 1);
  shape(net.output_dim(), n, spec.lo, spec.hi, (spec.hi - spec.lo) / static_cast<double>(n));

  // Jets of the reference network at all n_+1 nodes.
  AlignedVector<double> g0(m_), d0(m_), s0(m_), g1(m_), d1(m_), s1(m_);
  net.eval_jet(lo_, g0.data(), d0.data(), s0.data());
  for (std::size_t i = 0; i < n_; ++i) {
    const double x1 = lo_ + h_ * static_cast<double>(i + 1);
    net.eval_jet(x1, g1.data(), d1.data(), s1.data());
    for (std::size_t ch = 0; ch < m_; ++ch) {
      const Poly5 c = fit_quintic(h_, g0[ch], d0[ch], s0[ch], g1[ch], d1[ch], s1[ch]);
      for (std::size_t k = 0; k < 6; ++k) coef_[at(i, ch, k)] = c[k];
    }
    std::swap(g0, g1);
    std::swap(d0, d1);
    std::swap(s0, s1);
  }
}

template <class C>
std::size_t Table<C>::locate(Real s, Real& t) const {
  const Real u = (s - lo_) * inv_h_;
  std::size_t i;
  if (u < Real(0)) {
    i = 0;
    extrapolations_.bump();
  } else if (u >= static_cast<Real>(n_)) {
    i = n_ - 1;
    if (s > hi_) extrapolations_.bump();
  } else {
    i = static_cast<std::size_t>(u);
  }
  t = s - (lo_ + h_ * static_cast<Real>(i));
  return i;
}

template <class C>
void Table<C>::walk(const Real* s, std::size_t s_stride, std::size_t count, Real* g, Real* dg,
                    std::size_t out_stride, bool streaming) const {
  // Non-temporal stores need every output row 64-byte aligned; the stored
  // bits are identical either way, so one oracle covers both variants.
  const bool nt = streaming && dg != nullptr &&
                  ((reinterpret_cast<std::uintptr_t>(g) | reinterpret_cast<std::uintptr_t>(dg) |
                    (out_stride * sizeof(Real))) %
                       64 ==
                   0);
  const simd::TableWalkFn<C> fn = simd::pick_table_walk<C>(simd::active(), dg != nullptr, nt);
  const std::size_t interval = nblk_ * 6 * simd::kTableLane;
  for (std::size_t k = 0; k < count; ++k) {
    Real t;
    const std::size_t i = locate(s[k * s_stride], t);
    fn(coef_.data() + i * interval, t, m_, g + k * out_stride,
       dg != nullptr ? dg + k * out_stride : nullptr);
  }
  if (nt) simd::store_fence();
}

namespace {
template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <class T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DP_CHECK_MSG(static_cast<bool>(is), "truncated table stream");
  return v;
}
constexpr std::uint32_t kTableMagic = 0x44505442;  // "DPTB"
}  // namespace

template <class C>
void Table<C>::save(std::ostream& os) const
  requires kDouble
{
  write_pod(os, kTableMagic);
  write_pod<std::uint64_t>(os, m_);
  write_pod<std::uint64_t>(os, n_);
  write_pod(os, lo_);
  write_pod(os, hi_);
  AlignedVector<double> row(m_ * 6);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t ch = 0; ch < m_; ++ch)
      for (std::size_t k = 0; k < 6; ++k) row[ch * 6 + k] = coef_[at(i, ch, k)];
    os.write(reinterpret_cast<const char*>(row.data()),
             static_cast<std::streamsize>(row.size() * sizeof(double)));
  }
}

template <class C>
Table<C> Table<C>::load(std::istream& is)
  requires kDouble
{
  DP_CHECK_MSG(read_pod<std::uint32_t>(is) == kTableMagic, "bad table magic");
  const auto m = read_pod<std::uint64_t>(is);
  const auto n = read_pod<std::uint64_t>(is);
  const auto lo = read_pod<double>(is);
  const auto hi = read_pod<double>(is);
  DP_CHECK_MSG(m > 0 && n > 0 && std::isfinite(lo) && std::isfinite(hi) && hi > lo,
               "bad table header");
  // Bound n x M by the coefficients the stream can still hold, before
  // anything is allocated (n <= cap / m cannot overflow).
  const std::streamoff here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(here);
  DP_CHECK_MSG(here >= 0 && end >= here && is, "table stream is not seekable");
  const auto cap = static_cast<std::uint64_t>(end - here) / (6 * sizeof(double));
  DP_CHECK_MSG(m <= cap && n <= cap / m, "table header (" << n << " intervals x " << m
                                                           << " channels) exceeds the stream");
  Table t;
  t.shape(m, n, lo, hi, (hi - lo) / static_cast<double>(n));
  AlignedVector<double> row(m * 6);
  for (std::size_t i = 0; i < n; ++i) {
    is.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(double)));
    DP_CHECK_MSG(static_cast<bool>(is), "truncated table stream");
    for (std::size_t ch = 0; ch < m; ++ch)
      for (std::size_t k = 0; k < 6; ++k) t.coef_[t.at(i, ch, k)] = row[ch * 6 + k];
  }
  return t;
}

template class Table<double>;
template class Table<float>;
template class Table<_Float16>;

}  // namespace dp::tab
