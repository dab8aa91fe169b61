#include "symbolic/colcount.hpp"

#include "support/error.hpp"

namespace spc {

std::vector<i64> factor_col_counts(const SymSparse& a, const std::vector<idx>& parent) {
  const idx n = a.num_rows();
  SPC_CHECK(static_cast<idx>(parent.size()) == n, "factor_col_counts: size mismatch");
  std::vector<i64> count(static_cast<std::size_t>(n), 0);
  std::vector<idx> mark(static_cast<std::size_t>(n), kNone);
  const Graph g = a.pattern();
  // All walks for one row happen consecutively so the per-row marks stay
  // valid: entry (i, k) of A, k < i, seeds a walk from k toward the root,
  // stopping at columns already visited for row i.
  for (idx i = 0; i < n; ++i) {
    for (const idx* p = g.adj_begin(i); p != g.adj_end(i) && *p < i; ++p) {
      idx j = *p;
      while (j != kNone && j < i && mark[static_cast<std::size_t>(j)] != i) {
        ++count[static_cast<std::size_t>(j)];
        mark[static_cast<std::size_t>(j)] = i;
        j = parent[static_cast<std::size_t>(j)];
      }
    }
  }
  return count;
}

i64 factor_nnz(const std::vector<i64>& counts) {
  i64 total = 0;
  for (i64 c : counts) total += c;
  return total;
}

i64 factor_flops(const std::vector<i64>& counts) {
  i64 total = 0;
  for (i64 c : counts) total += c * c + 3 * c + 1;
  return total;
}

}  // namespace spc
