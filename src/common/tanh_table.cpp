#include "common/tanh_table.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace dp {

TanhTable::TanhTable(double x_max, std::size_t intervals)
    : x_max_(x_max), intervals_(intervals) {
  DP_CHECK(x_max > 0.0 && intervals > 0);
  h_ = x_max_ / static_cast<double>(intervals_);
  inv_h_ = 1.0 / h_;
  coef_.resize(3 * intervals_);
  // Quadratic through the endpoints and midpoint of each interval, expressed
  // in the local coordinate t = x - x0. Interpolation (rather than Taylor)
  // halves the worst-case error for the same grid.
  for (std::size_t k = 0; k < intervals_; ++k) {
    const double x0 = static_cast<double>(k) * h_;
    const double f0 = std::tanh(x0);
    const double fm = std::tanh(x0 + 0.5 * h_);
    const double f1 = std::tanh(x0 + h_);
    // f(t) = c0 + c1 t + c2 t^2 with f(0)=f0, f(h/2)=fm, f(h)=f1.
    const double c0 = f0;
    const double c2 = (f1 - 2.0 * fm + f0) * 2.0 * inv_h_ * inv_h_;
    const double c1 = (f1 - f0) * inv_h_ - c2 * h_;
    coef_[3 * k + 0] = c0;
    coef_[3 * k + 1] = c1;
    coef_[3 * k + 2] = c2;
  }
}

namespace {

#if DP_SIMD_X86

// Scalar remainder of the vector kernels. Annotated so std::fma compiles to
// the FMA instruction AND rounds exactly like the vector lanes' v*_fmadd —
// a tail element and a vector lane produce the same bits.
DP_TARGET_AVX2 double tanh_eval_tail(const double* coef, double x_max, double inv_h,
                                     double h, int last, double x) {
  const double ax = x < 0.0 ? -x : x;
  if (ax >= x_max) return x < 0.0 ? -1.0 : 1.0;
  // TanhTable::eval's clamp: a NaN takes the last segment and stays NaN.
  const double u = ax * inv_h;
  const int k = u < static_cast<double>(last) + 1.0 ? static_cast<int>(u) : last;
  const double t = std::fma(-static_cast<double>(k), h, ax);
  const double* c = coef + 3 * k;
  const double y = std::fma(t, std::fma(t, c[2], c[1]), c[0]);
  return x < 0.0 ? -y : y;
}

// Vector form of TanhTable::eval, 4 inputs at a time: |x|, saturation mask,
// clamped segment index, 3-coefficient gather, FMA quadratic, sign restore.
// The index is clamped to [0, last] (eval's upper clamp; the lower bound
// also tames the INT_MIN the truncating conversion yields for saturated
// inputs whose u overflows i32 — those lanes are blended away regardless).
DP_TARGET_AVX2 void tanh_batch_avx2(const double* coef, double x_max, double inv_h,
                                    double h, int last, const double* x, double* y,
                                    std::size_t n) {
  using namespace simd;
  const v4d vxmax = v4_set1(x_max), vinvh = v4_set1(inv_h), vh = v4_set1(h);
  const v4d vone = v4_set1(1.0), vzero = v4_set1(0.0);
  const v4i izero = i4_set1(0), ilast = i4_set1(last);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const v4d vx = v4_loadu(x + i);
    const v4d ax = v4_abs(vx);
    v4i k = v4_cvtt_i32(v4_mul(ax, vinvh));
    k = i4_min(i4_max(k, izero), ilast);
    const v4d t = v4_fmadd(v4_neg(v4_cvt_f64(k)), vh, ax);
    const v4i k3 = i4_add(i4_add(k, k), k);
    const v4d c0 = v4_gather(coef + 0, k3);
    const v4d c1 = v4_gather(coef + 1, k3);
    const v4d c2 = v4_gather(coef + 2, k3);
    v4d vy = v4_fmadd(t, v4_fmadd(t, c2, c1), c0);
    vy = v4_blend(vy, vone, v4_cmp_ge(ax, vxmax));
    vy = v4_blend(vy, v4_neg(vy), v4_cmp_lt(vx, vzero));
    v4_storeu(y + i, vy);
  }
  for (; i < n; ++i) y[i] = tanh_eval_tail(coef, x_max, inv_h, h, last, x[i]);
}

DP_TARGET_AVX512 void tanh_batch_avx512(const double* coef, double x_max, double inv_h,
                                        double h, int last, const double* x, double* y,
                                        std::size_t n) {
  using namespace simd;
  const v8d vxmax = v8_set1(x_max), vinvh = v8_set1(inv_h), vh = v8_set1(h);
  const v8d vone = v8_set1(1.0), vzero = v8_set1(0.0);
  const v8i izero = i8_set1(0), ilast = i8_set1(last);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const v8d vx = v8_loadu(x + i);
    const v8d ax = v8_abs(vx);
    v8i k = v8_cvtt_i32(v8_mul(ax, vinvh));
    k = i8_min(i8_max(k, izero), ilast);
    const v8d t = v8_fmadd(v8_neg(v8_cvt_f64(k)), vh, ax);
    const v8i k3 = i8_add(i8_add(k, k), k);
    const v8d c0 = v8_gather(coef + 0, k3);
    const v8d c1 = v8_gather(coef + 1, k3);
    const v8d c2 = v8_gather(coef + 2, k3);
    v8d vy = v8_fmadd(t, v8_fmadd(t, c2, c1), c0);
    vy = v8_blend(vy, vone, v8_cmp_ge(ax, vxmax));
    vy = v8_blend(vy, v8_neg(vy), v8_cmp_lt(vx, vzero));
    v8_storeu(y + i, vy);
  }
  for (; i < n; ++i) y[i] = tanh_eval_tail(coef, x_max, inv_h, h, last, x[i]);
}

#endif  // DP_SIMD_X86

}  // namespace

void TanhTable::eval_batch(const double* x, double* y, std::size_t n) const {
#if DP_SIMD_X86
  const int last = static_cast<int>(intervals_) - 1;
  switch (simd::active()) {
    case simd::Level::AVX512:
      tanh_batch_avx512(coef_.data(), x_max_, inv_h_, h_, last, x, y, n);
      return;
    case simd::Level::AVX2:
      tanh_batch_avx2(coef_.data(), x_max_, inv_h_, h_, last, x, y, n);
      return;
    case simd::Level::Scalar:
      break;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] = eval(x[i]);
}

double TanhTable::measured_max_error() const {
  double max_err = 0.0;
  const std::size_t probes = 20011;  // prime, avoids aliasing with the grid
  for (std::size_t i = 0; i < probes; ++i) {
    const double x = -1.5 * x_max_ +
                     3.0 * x_max_ * static_cast<double>(i) / static_cast<double>(probes - 1);
    const double err = std::fabs(eval(x) - std::tanh(x));
    if (err > max_err) max_err = err;
  }
  return max_err;
}

const TanhTable& default_tanh_table() {
  static const TanhTable table;
  return table;
}

}  // namespace dp
