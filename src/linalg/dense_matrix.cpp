#include "linalg/dense_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace spc {

DenseMatrix::DenseMatrix(idx rows, idx cols) { resize(rows, cols); }

void DenseMatrix::resize(idx rows, idx cols) {
  SPC_CHECK(rows >= 0 && cols >= 0, "DenseMatrix dimensions must be non-negative");
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0);
}

void DenseMatrix::resize_for_overwrite(idx rows, idx cols) {
  SPC_CHECK(rows >= 0 && cols >= 0, "DenseMatrix dimensions must be non-negative");
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
}

void DenseMatrix::reserve(idx rows, idx cols) {
  SPC_CHECK(rows >= 0 && cols >= 0, "DenseMatrix dimensions must be non-negative");
  data_.reserve(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
}

void DenseMatrix::set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

double DenseMatrix::norm() const {
  double s = 0.0;
  for (const double v : data_) s += v * v;
  return std::sqrt(s);
}

void DenseMatrix::axpy(double alpha, const DenseMatrix& other) {
  SPC_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
            "DenseMatrix::axpy shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

}  // namespace spc
