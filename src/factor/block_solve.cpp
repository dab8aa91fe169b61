#include "factor/block_solve.hpp"

#include "support/error.hpp"

namespace spc {

void block_lower_solve(const BlockFactor& f, std::vector<double>& x) {
  const BlockStructure& bs = *f.structure;
  SPC_CHECK(static_cast<idx>(x.size()) == bs.part.num_cols(),
            "block_lower_solve: size mismatch");
  for (idx k = 0; k < bs.num_block_cols(); ++k) {
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    const double* d = f.diag(k);  // w x w, ld w
    // Forward substitution with the diagonal block.
    for (idx c = 0; c < w; ++c) {
      double s = x[static_cast<std::size_t>(first + c)];
      for (idx r = 0; r < c; ++r) {
        s -= d[static_cast<std::size_t>(r) * w + c] * x[static_cast<std::size_t>(first + r)];
      }
      x[static_cast<std::size_t>(first + c)] = s / d[static_cast<std::size_t>(c) * w + c];
    }
    // Propagate through the off-diagonal blocks.
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const idx cnt = bs.blkcnt[e];
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < w; ++c) {
        const double xc = x[static_cast<std::size_t>(first + c)];
        if (xc == 0.0) continue;
        const double* lcol = f.offdiag(e) + static_cast<std::size_t>(c) * cnt;
        for (idx r = 0; r < cnt; ++r) {
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
      const idx cnt = bs.blkcnt[e];
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < w; ++c) {
        double s = 0.0;
        const double* lcol = f.offdiag(e) + static_cast<std::size_t>(c) * cnt;
        for (idx r = 0; r < cnt; ++r) {
          s += lcol[r] * x[static_cast<std::size_t>(rows[r])];
        }
        x[static_cast<std::size_t>(first + c)] -= s;
      }
    }
    // Backward substitution with the diagonal block transposed.
    const double* d = f.diag(k);
    for (idx c = w - 1; c >= 0; --c) {
      const double* dcol = d + static_cast<std::size_t>(c) * w;
      double s = x[static_cast<std::size_t>(first + c)];
      for (idx r = c + 1; r < w; ++r) s -= dcol[r] * x[static_cast<std::size_t>(first + r)];
      x[static_cast<std::size_t>(first + c)] = s / dcol[c];
    }
  }
}

std::vector<double> block_solve(const BlockFactor& f, const std::vector<double>& b) {
  std::vector<double> x = b;
  block_lower_solve(f, x);
  block_lower_transpose_solve(f, x);
  return x;
}

}  // namespace spc
