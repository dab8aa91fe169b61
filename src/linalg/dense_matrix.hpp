// Column-major dense matrix, the storage unit for factor blocks.
//
// Blocks of the sparse factor are stored "row-compressed": only the dense rows
// of the block are kept (see blocks/block_structure.hpp), so a DenseMatrix here
// holds rows() = number of dense rows, cols() = block width.
//
// Storage comes in two modes:
//   - owning (default): the matrix manages its own heap buffer, exactly as a
//     std::vector<double> would.
//   - view: attach() points the matrix at caller-owned storage (the factor
//     arena of numeric_factor.hpp pools every block of a factorization into
//     one allocation). Views never allocate or free; the caller guarantees
//     the backing buffer outlives the view. Copying a view deep-copies the
//     contents into a fresh owning matrix, so value semantics are preserved
//     everywhere downstream (tests, serialization, solves).
#pragma once

#include <vector>

#include "support/types.hpp"

namespace spc {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(idx rows, idx cols);

  // Deep copy: the destination always owns its storage afterwards, even when
  // the source is a view into an arena.
  DenseMatrix(const DenseMatrix& other);
  DenseMatrix& operator=(const DenseMatrix& other);
  // Moves keep view pointers valid (the vector's heap buffer is stable across
  // moves); the source is left empty.
  DenseMatrix(DenseMatrix&& other) noexcept;
  DenseMatrix& operator=(DenseMatrix&& other) noexcept;

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  // True when the storage is caller-owned (attach()ed), e.g. a factor arena.
  bool is_view() const { return ptr_ != nullptr && data_.empty(); }

  double& operator()(idx r, idx c) { return ptr_[static_cast<std::size_t>(c) * rows_ + r]; }
  double operator()(idx r, idx c) const {
    return ptr_[static_cast<std::size_t>(c) * rows_ + r];
  }

  double* data() { return ptr_; }
  const double* data() const { return ptr_; }
  // Pointer to the start of column c.
  double* col(idx c) { return ptr_ + static_cast<std::size_t>(c) * rows_; }
  const double* col(idx c) const {
    return ptr_ + static_cast<std::size_t>(c) * rows_;
  }

  // Points this matrix at caller-owned storage of `rows * cols` doubles
  // (column-major). Releases any owned storage. The contents are whatever
  // the buffer holds; the caller keeps the buffer alive and sized.
  void attach(double* storage, idx rows, idx cols);

  void set_zero();
  void resize(idx rows, idx cols);

  // Like resize() but without the zero-fill: the logical contents are
  // unspecified afterwards. For scratch the caller fully overwrites (e.g.
  // via gemm_nt_neg_raw). Within reserved capacity this touches no memory.
  void resize_for_overwrite(idx rows, idx cols);

  // Pre-allocates backing storage for `rows * cols` elements without changing
  // the logical shape. resize() never shrinks capacity, so a buffer reserved
  // to its high-water size is allocation-free from then on (the parallel
  // solve uses this for per-worker scratch). Detaches a view.
  void reserve(idx rows, idx cols);

  // Frobenius norm.
  double norm() const;

  // this += alpha * other (same shape required).
  void axpy(double alpha, const DenseMatrix& other);

 private:
  std::size_t size() const {
    return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  }

  idx rows_ = 0;
  idx cols_ = 0;
  double* ptr_ = nullptr;     // element storage: data_.data() or attached
  std::vector<double> data_;  // backing store in owning mode; empty for views
};

}  // namespace spc
