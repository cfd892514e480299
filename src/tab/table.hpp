// Tabulated embedding net (paper Sec 3.2 / 3.5.1).
//
// The whole map g : R -> R^M is replaced by M quintic Hermite splines on a
// uniform grid over the physical range of s(r). Building the table samples
// the reference network's value, first and second derivative at the nodes
// (forward-mode jets), so the spline is C2 and its derivative — used for
// forces — is the exact gradient of the tabulated energy.
//
// One coefficient layout: per interval, channels grouped in blocks of
// simd::kTableLane with the 6 coefficient streams transposed, so one vector
// load feeds one Horner step across a block (the A64FX layout of Sec 3.5.1,
// Fig 5; on x86 it vectorizes the same way). The coefficients are stored as
// double, float or _Float16 — the storage half of the mixed-precision paths
// (the paper's Table 1 mixed rows; making the *optimized* code mixed-precision
// is its stated future work) — and the narrow tables evaluate in float.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <type_traits>

#include "common/aligned.hpp"
#include "common/simd.hpp"
#include "nn/embedding_net.hpp"

namespace dp::tab {

/// A relaxed atomic counter that copies by value, so classes holding one as
/// telemetry keep their implicit copy/move operations. Copying snapshots the
/// count; it is not an atomic transfer (copies happen single-threaded, at
/// model build/load time).
///
/// Capability note (docs/STATIC_ANALYSIS.md): this is the one piece of
/// cross-thread table state — the rest of a table is immutable after build,
/// which is what lets one model copy be shared per rank with no lock and no
/// DP_GUARDED_BY. Readers of value() accept a relaxed snapshot; the joins
/// at the end of a run supply the final happens-before.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& o) noexcept
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    v_.store(o.v_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
  void bump() noexcept { v_.fetch_add(1, std::memory_order_relaxed); }
  std::size_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> v_{0};
};

struct TabulationSpec {
  double lo = 0.0;        ///< lower bound of the tabulated domain of s
  double hi = 1.0;        ///< upper bound
  double interval = 0.01; ///< node spacing (the paper sweeps 0.1/0.01/0.001)
};

/// A quintic table with coefficients stored as C (double, float or
/// _Float16), evaluated in Real.
template <class C>
class Table {
 public:
  using Real = simd::TableReal<C>;
  static constexpr bool kDouble = std::is_same_v<C, double>;

  Table() = default;
  /// Samples the network (double tables only).
  Table(const nn::EmbeddingNet& net, const TabulationSpec& spec)
    requires kDouble;
  /// Rounds a double table's coefficients to C (through float for _Float16)
  /// and its grid to float. (A template, so Table<double> keeps its implicit
  /// copy constructor.)
  template <class D>
    requires(!kDouble && std::is_same_v<D, double>)
  explicit Table(const Table<D>& ref) {
    shape(ref.m_, ref.n_, static_cast<Real>(ref.lo_), static_cast<Real>(ref.hi_),
          static_cast<Real>(ref.h_));
    for (std::size_t k = 0; k < coef_.size(); ++k)
      coef_[k] = static_cast<C>(static_cast<float>(ref.coef_[k]));
  }

  std::size_t output_dim() const { return m_; }
  std::size_t n_intervals() const { return n_; }
  Real interval() const { return h_; }
  Real lo() const { return lo_; }
  Real hi() const { return hi_; }
  /// Table size in bytes: n x M x 6 coefficients of C — what a deployment
  /// ships (the lane padding of the last block is not counted).
  std::size_t bytes() const { return n_ * m_ * 6 * sizeof(C); }

  /// g[0..M): tabulated g(s). s outside [lo, hi] extrapolates with the edge
  /// segment (smoothly) and is counted in extrapolations().
  void eval(Real s, Real* g) const { walk(&s, 1, 1, g, nullptr, 0, false); }

  /// Value and d/ds together (one table walk — the fused kernels want both).
  void eval_with_deriv(Real s, Real* g, Real* dg) const {
    walk(&s, 1, 1, g, dg, 0, false);
  }

  /// Batched walk over `count` inputs: s values at s[k * s_stride] (stride 4
  /// walks the first column of contiguous env-matrix rows), g/dg rows at
  /// g + k * out_stride resp. dg + k * out_stride. Identical results to
  /// `count` eval_with_deriv calls — the batch resolves the SIMD dispatch
  /// once and keeps the coefficient streams hot.
  ///
  /// `streaming` hints that the aggregate output run (across this and the
  /// surrounding calls) streams far past the last-level cache: the vector
  /// levels then use non-temporal stores, halving the write traffic. Bits
  /// stored are identical; the hint is ignored when an output row is not
  /// 64-byte aligned. Leave it off when the rows are consumed while still
  /// cache-hot (e.g. a per-atom staging buffer).
  void eval_with_deriv_batch(const Real* s, std::size_t s_stride, std::size_t count, Real* g,
                             Real* dg, std::size_t out_stride, bool streaming = false) const {
    walk(s, s_stride, count, g, dg, out_stride, streaming);
  }

  /// Pass 1 of the fused kernels (paper Sec 3.4.1, Fig 4 (c)) over one slot
  /// run: each of the `count` env-matrix rows at rmat (stride 4, s = row[0])
  /// is located once, then a[c * M + b] += row[c] * g_b(s), slot by slot, for
  /// the four columns c — the table walk and the rank-1 contraction in one
  /// sweep that keeps the row and a channel chunk of A in registers
  /// (simd::FusedPass1Fn). `unit_weight` contracts one column of weight 1
  /// instead (se_r: a[b] += g_b(s)).
  void contract(const double* rmat, std::size_t count, Real* a, bool unit_weight = false) const;

  /// Pass 2 over the same slot run (simd::FusedPass2Fn): grad[4k + c] =
  /// <g_a[c], g(s_k)>, plus <sum_c row_k[c] g_a[c], g'(s_k)> in c = 0; with
  /// `unit_weight`, grad[4k] = <g_a[0], g'(s_k)> and three zeros.
  /// `count_lookups` false keeps these lookups out of extrapolations(), for
  /// a pass that re-reads slots its evaluation's pass 1 already counted.
  /// grad may alias rmat: every row is read into a stack group of up to 256
  /// located slots before the kernel writes that group's grad rows.
  void contract_gradient(const double* rmat, std::size_t count, const Real* g_a, double* grad,
                         bool unit_weight = false, bool count_lookups = true) const;

  std::size_t extrapolations() const { return extrapolations_.value(); }

  /// Binary (de)serialization — the shipped artifact of "dp compress". The
  /// stream holds the coefficients channel-major per interval,
  /// [(interval * M + channel) * 6 + k]; load() validates the header against
  /// the bytes the stream has left before allocating.
  void save(std::ostream& os) const
    requires kDouble;
  static Table load(std::istream& is, const std::string& source = "table stream")
    requires kDouble;

 private:
  template <class D>
  friend class Table;

  /// Grid and channel count; sizes coef_ (zeroed, so padded lanes stay 0).
  void shape(std::size_t m, std::size_t n, Real lo, Real hi, Real h);
  /// Coefficient k of (interval i, channel ch) in the blocked layout.
  std::size_t at(std::size_t i, std::size_t ch, std::size_t k) const {
    return ((i * nblk_ + ch / simd::kTableLane) * 6 + k) * simd::kTableLane +
           ch % simd::kTableLane;
  }
  /// Locates the segment and local coordinate for s; an s outside [lo, hi]
  /// bumps extrapolations() when `counted`.
  std::size_t locate(Real s, Real& t, bool counted = true) const;
  /// Locates the env rows of a slot run into the fused kernels' slots, a
  /// stack-sized group at a time, and hands each group to
  /// kernel(slots, n, first).
  template <class Kernel>
  void for_located(const double* rmat, std::size_t count, bool unit_weight, bool counted,
                   Kernel kernel) const;
  /// The one walk behind eval / eval_with_deriv / the batch (dg == nullptr:
  /// values only).
  void walk(const Real* s, std::size_t s_stride, std::size_t count, Real* g, Real* dg,
            std::size_t out_stride, bool streaming) const;

  std::size_t m_ = 0;     // channels
  std::size_t nblk_ = 0;  // channel blocks of kTableLane
  std::size_t n_ = 0;     // intervals
  Real lo_ = 0, hi_ = 1, h_ = 1, inv_h_ = 1;
  AlignedVector<C> coef_;  // [(i * nblk + b) * 6 + k][lane]
  // Atomic (relaxed): one table is evaluated concurrently by every rank and
  // OpenMP thread, and locate() bumps this from a const context. The bump
  // sits only on the rare out-of-range branches, so the in-range hot path
  // pays nothing; the count is telemetry read after the run.
  mutable RelaxedCounter extrapolations_;
};

extern template class Table<double>;
extern template class Table<float>;
extern template class Table<_Float16>;

using TabulatedEmbedding = Table<double>;
/// Single-precision coefficients: table memory halves.
using TabulatedEmbeddingSP = Table<float>;
/// IEEE binary16 coefficients, widened to float in registers: another 2x
/// memory saving, at a visible accuracy cost (the paper: "the
/// mixed-precision versions of code still has accuracy problems").
using TabulatedEmbeddingHP = Table<_Float16>;

}  // namespace dp::tab
