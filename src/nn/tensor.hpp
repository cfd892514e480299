// A minimal dense row-major matrix. This is the only tensor abstraction the
// library needs: the DP model is a pipeline of small GEMMs and elementwise
// maps over per-atom matrices.
#pragma once

#include <cstddef>
#include <utility>

#include "common/aligned.hpp"
#include "common/error.hpp"

namespace dp::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) { resize(rows, cols); }

  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  std::size_t capacity() const { return data_.capacity(); }
  bool empty() const { return size() == 0; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  friend bool same_shape(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  AlignedVector<double> data_;
};

}  // namespace dp::nn
