#include "tab/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "common/binary_io.hpp"
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
std::size_t Table<C>::locate(Real s, Real& t, bool counted) const {
  const Real u = (s - lo_) * inv_h_;
  std::size_t i;
  if (u < Real(0)) {
    i = 0;
    if (counted) extrapolations_.bump();
  } else if (u >= static_cast<Real>(n_)) {
    i = n_ - 1;
    if (counted && s > hi_) extrapolations_.bump();
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
/// Slots located per fused-kernel call: a run up to this long is one call.
/// The located slots live on the stack (12 KiB for a double table).
constexpr std::size_t kSlotGroup = 256;
}  // namespace

template <class C>
template <class Kernel>
void Table<C>::for_located(const double* rmat, std::size_t count, bool unit_weight,
                           bool counted, Kernel kernel) const {
  simd::FusedSlot<C> slots[kSlotGroup];
  const std::size_t interval = nblk_ * 6 * simd::kTableLane;
  for (std::size_t first = 0; first < count; first += kSlotGroup) {
    const std::size_t n = std::min(kSlotGroup, count - first);
    for (std::size_t k = 0; k < n; ++k) {
      const double* row = rmat + 4 * (first + k);
      simd::FusedSlot<C>& sl = slots[k];
      sl.coef = coef_.data() + locate(static_cast<Real>(row[0]), sl.t, counted) * interval;
      for (std::size_t c = 0; c < 4; ++c)
        sl.r[c] = unit_weight ? Real(c == 0 ? 1 : 0) : static_cast<Real>(row[c]);
    }
    kernel(slots, n, first);
  }
}

template <class C>
void Table<C>::contract(const double* rmat, std::size_t count, Real* a,
                        bool unit_weight) const {
  const simd::FusedPass1Fn<C> fn = simd::pick_fused_pass1<C>(simd::active(), unit_weight);
  for_located(rmat, count, unit_weight, true,
              [&](const simd::FusedSlot<C>* slots, std::size_t n, std::size_t) {
                fn(slots, n, m_, a);
              });
}

template <class C>
void Table<C>::contract_gradient(const double* rmat, std::size_t count, const Real* g_a,
                                 double* grad, bool unit_weight, bool count_lookups) const {
  const simd::FusedPass2Fn<C> fn = simd::pick_fused_pass2<C>(simd::active(), unit_weight);
  for_located(rmat, count, unit_weight, count_lookups,
              [&](const simd::FusedSlot<C>* slots, std::size_t n, std::size_t first) {
                fn(slots, n, m_, g_a, grad + 4 * first);
              });
}

namespace {
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
Table<C> Table<C>::load(std::istream& is, const std::string& source)
  requires kDouble
{
  BinaryReader r(is, source);
  r.check(r.pod<std::uint32_t>("magic") == kTableMagic, "magic", "not a table");
  // Bound n x M by the coefficients the stream can still hold, before
  // anything is allocated.
  constexpr std::uint64_t kRowBytes = 6 * sizeof(double);
  const auto m = r.count<std::uint64_t>("table channels", kRowBytes);
  const auto n = r.count<std::uint64_t>("table intervals", m * kRowBytes);
  const auto lo = r.pod<double>("table lo");
  const auto hi = r.pod<double>("table hi");
  r.check(std::isfinite(lo) && std::isfinite(hi) && hi > lo, "table range", "[", lo, ", ", hi,
          "]");
  Table t;
  t.shape(m, n, lo, hi, (hi - lo) / static_cast<double>(n));
  AlignedVector<double> row(m * 6);
  for (std::size_t i = 0; i < n; ++i) {
    r.read(row.data(), row.size() * sizeof(double), "table coefficients");
    for (std::size_t ch = 0; ch < m; ++ch)
      for (std::size_t k = 0; k < 6; ++k) t.coef_[t.at(i, ch, k)] = row[ch * 6 + k];
  }
  return t;
}

template class Table<double>;
template class Table<float>;
template class Table<_Float16>;

}  // namespace dp::tab
