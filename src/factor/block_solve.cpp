#include "factor/block_solve.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "support/error.hpp"

namespace spc {

void block_lower_solve(const BlockFactor& f, std::vector<double>& x) {
  const BlockStructure& bs = *f.structure;
  SPC_CHECK(static_cast<idx>(x.size()) == bs.part.num_cols(),
            "block_lower_solve: size mismatch");
  for (idx k = 0; k < bs.num_block_cols(); ++k) {
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    const DenseMatrix& d = f.diag[static_cast<std::size_t>(k)];
    // Forward substitution with the diagonal block.
    for (idx c = 0; c < w; ++c) {
      double s = x[static_cast<std::size_t>(first + c)];
      for (idx r = 0; r < c; ++r) s -= d(c, r) * x[static_cast<std::size_t>(first + r)];
      x[static_cast<std::size_t>(first + c)] = s / d(c, c);
    }
    // Propagate through the off-diagonal blocks.
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < w; ++c) {
        const double xc = x[static_cast<std::size_t>(first + c)];
        if (xc == 0.0) continue;
        const double* lcol = l.col(c);
        for (idx r = 0; r < l.rows(); ++r) {
          x[static_cast<std::size_t>(rows[r])] -= lcol[r] * xc;
        }
      }
    }
  }
}

void block_lower_transpose_solve(const BlockFactor& f, std::vector<double>& x) {
  const BlockStructure& bs = *f.structure;
  SPC_CHECK(static_cast<idx>(x.size()) == bs.part.num_cols(),
            "block_lower_transpose_solve: size mismatch");
  for (idx k = bs.num_block_cols() - 1; k >= 0; --k) {
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    // Gather contributions from the off-diagonal blocks.
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < w; ++c) {
        double s = 0.0;
        const double* lcol = l.col(c);
        for (idx r = 0; r < l.rows(); ++r) {
          s += lcol[r] * x[static_cast<std::size_t>(rows[r])];
        }
        x[static_cast<std::size_t>(first + c)] -= s;
      }
    }
    // Backward substitution with the diagonal block transposed.
    const DenseMatrix& d = f.diag[static_cast<std::size_t>(k)];
    for (idx c = w - 1; c >= 0; --c) {
      double s = x[static_cast<std::size_t>(first + c)];
      for (idx r = c + 1; r < w; ++r) s -= d(r, c) * x[static_cast<std::size_t>(first + r)];
      x[static_cast<std::size_t>(first + c)] = s / d(c, c);
    }
  }
}

std::vector<double> block_solve(const BlockFactor& f, const std::vector<double>& b) {
  std::vector<double> x = b;
  block_lower_solve(f, x);
  block_lower_transpose_solve(f, x);
  return x;
}

void block_lower_solve_panel(const BlockFactor& f, double* x, idx ldx,
                             idx nrhs, DenseMatrix& scratch) {
  const BlockStructure& bs = *f.structure;
  for (idx k = 0; k < bs.num_block_cols(); ++k) {
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    const DenseMatrix& d = f.diag[static_cast<std::size_t>(k)];
    trsm_left_lower(w, nrhs, d.data(), w, x + first, ldx);
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx cnt = l.rows();
      scratch.resize_for_overwrite(cnt, nrhs);
      gemm_nn_neg_raw(cnt, nrhs, w, l.data(), cnt, x + first, ldx,
                      scratch.data(), cnt);
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < nrhs; ++c) {
        double* xc = x + static_cast<std::size_t>(c) * ldx;
        const double* u = scratch.col(c);
        for (idx r = 0; r < cnt; ++r) xc[rows[r]] += u[r];
      }
    }
  }
}

void block_lower_transpose_solve_panel(const BlockFactor& f, double* x,
                                       idx ldx, idx nrhs,
                                       DenseMatrix& scratch) {
  const BlockStructure& bs = *f.structure;
  for (idx k = bs.num_block_cols() - 1; k >= 0; --k) {
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx cnt = l.rows();
      const idx* rows = bs.entry_rows_begin(e);
      scratch.resize_for_overwrite(cnt, nrhs);
      for (idx c = 0; c < nrhs; ++c) {
        const double* xc = x + static_cast<std::size_t>(c) * ldx;
        double* g = scratch.col(c);
        for (idx r = 0; r < cnt; ++r) g[r] = xc[rows[r]];
      }
      gemm_tn_minus_raw(w, nrhs, cnt, l.data(), cnt, scratch.data(), cnt,
                        x + first, ldx);
    }
    const DenseMatrix& d = f.diag[static_cast<std::size_t>(k)];
    trsm_left_ltrans(w, nrhs, d.data(), w, x + first, ldx);
  }
}

void block_solve_multi(const BlockFactor& f, DenseMatrix& b, idx nrhs_block) {
  const idx n = f.structure->part.num_cols();
  SPC_CHECK(b.rows() == n, "block_solve_multi: row count mismatch");
  SPC_CHECK(nrhs_block >= 1, "block_solve_multi: nrhs_block must be >= 1");
  DenseMatrix scratch;
  for (idx c0 = 0; c0 < b.cols(); c0 += nrhs_block) {
    const idx nc = std::min<idx>(nrhs_block, b.cols() - c0);
    block_lower_solve_panel(f, b.col(c0), n, nc, scratch);
    block_lower_transpose_solve_panel(f, b.col(c0), n, nc, scratch);
  }
}

}  // namespace spc
