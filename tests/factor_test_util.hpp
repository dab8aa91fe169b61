// Shared test helpers for factors: block iteration, block-by-block
// comparison of two factors over one structure, and the serial multi-RHS
// solve the tests use as their panel reference.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "factor/numeric_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "linalg/dense_matrix.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace spc::test_support {

// Calls fn(b, data, rows, cols) for every block of f in block-id order: the
// diagonal blocks (width x width, stored dense), then the off-diagonal
// entries (blkcnt[e] x width). Each block is column-major with ld = rows.
template <class Fn>
void for_each_block(const BlockFactor& f, Fn&& fn) {
  const BlockStructure& bs = *f.structure;
  const idx nb = bs.num_block_cols();
  for (idx j = 0; j < nb; ++j) {
    fn(static_cast<block_id>(j), f.diag(j), bs.part.width(j), bs.part.width(j));
  }
  for (idx j = 0; j < nb; ++j) {
    for (i64 e = bs.blkptr[j]; e < bs.blkptr[j + 1]; ++e) {
      fn(nb + e, f.offdiag(e), bs.blkcnt[e], bs.part.width(j));
    }
  }
}

// The entries a comparison covers: every stored entry, or the lower
// triangle of each diagonal block only (kLower), each optionally restricted
// to the diagonal blocks (kDiag, kDiagLower).
enum class FactorEntries { kAll, kLower, kDiag, kDiagLower };

struct FactorDiff {
  double max_block_norm = 0.0;  // max over blocks of ||X_b - Y_b||_F
  double max_abs = 0.0;         // max |x - y| over the compared entries
  i64 mismatches = 0;           // compared entries with x != y
};

// Compares two factors of the same structure entry by entry.
inline FactorDiff compare_factors(const BlockFactor& x, const BlockFactor& y,
                                  FactorEntries which = FactorEntries::kAll) {
  SPC_CHECK(x.structure == y.structure,
            "compare_factors: factors of different structures");
  const bool lower = which == FactorEntries::kLower ||
                     which == FactorEntries::kDiagLower;
  const bool diag_only = which == FactorEntries::kDiag ||
                         which == FactorEntries::kDiagLower;
  const idx nb = x.structure->num_block_cols();
  FactorDiff d;
  for_each_block(x, [&](block_id b, const double* xb, idx rows, idx cols) {
    const bool is_diag = b < nb;
    if (diag_only && !is_diag) return;
    const double* yb = is_diag ? y.diag(static_cast<idx>(b)) : y.offdiag(b - nb);
    double s = 0.0;
    for (idx c = 0; c < cols; ++c) {
      for (idx r = lower && is_diag ? c : 0; r < rows; ++r) {
        const std::size_t i = static_cast<std::size_t>(c) * rows + r;
        const double diff = xb[i] - yb[i];
        s += diff * diff;
        d.max_abs = std::max(d.max_abs, std::abs(diff));
        if (xb[i] != yb[i]) ++d.mismatches;
      }
    }
    d.max_block_norm = std::max(d.max_block_norm, std::sqrt(s));
  });
  return d;
}

// The serial panel solve of B in place: block_solve_multi_parallel at one
// thread, panels of nrhs_block columns.
inline void solve_serial(const BlockFactor& f, DenseMatrix& b,
                         idx nrhs_block = 32) {
  SolveOptions opt;
  opt.threads = 1;
  opt.nrhs_block = nrhs_block;
  block_solve_multi_parallel(f, b, opt);
}

}  // namespace spc::test_support
