// Column-major dense matrix that owns its storage: scratch panels, RHS
// panels, the distributed executor's per-processor blocks, and the dense
// kernels' test operands. The factor itself is not stored in DenseMatrix:
// a BlockFactor (factor/numeric_factor.hpp) is one arena addressed by
// block, read through raw pointers.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace spc {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(idx rows, idx cols);

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(idx r, idx c) { return data_[static_cast<std::size_t>(c) * rows_ + r]; }
  double operator()(idx r, idx c) const {
    return data_[static_cast<std::size_t>(c) * rows_ + r];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  // Pointer to the start of column c.
  double* col(idx c) { return data_.data() + static_cast<std::size_t>(c) * rows_; }
  const double* col(idx c) const {
    return data_.data() + static_cast<std::size_t>(c) * rows_;
  }

  void set_zero();
  void resize(idx rows, idx cols);

  // Like resize() but without the zero-fill: the logical contents are
  // unspecified afterwards. For scratch the caller fully overwrites (e.g.
  // via gemm_nt_neg_raw). Within reserved capacity this touches no memory.
  void resize_for_overwrite(idx rows, idx cols);

  // Pre-allocates backing storage for `rows * cols` elements without changing
  // the logical shape. resize() never shrinks capacity, so a buffer reserved
  // to its high-water size is allocation-free from then on (the parallel
  // solve uses this for per-worker scratch).
  void reserve(idx rows, idx cols);
  std::size_t capacity() const { return data_.capacity(); }  // elements

  // Frobenius norm.
  double norm() const;

  // this += alpha * other (same shape required).
  void axpy(double alpha, const DenseMatrix& other);

 private:
  idx rows_ = 0;
  idx cols_ = 0;
  std::vector<double> data_;
};

}  // namespace spc
