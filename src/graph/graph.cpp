#include "graph/graph.hpp"

#include <algorithm>

#include "graph/permutation.hpp"
#include "support/error.hpp"

namespace spc {

Graph Graph::from_edges(idx n, const std::vector<std::pair<idx, idx>>& edges) {
  SPC_CHECK(n >= 0, "Graph::from_edges: negative vertex count");
  std::vector<std::pair<idx, idx>> sym;
  sym.reserve(edges.size() * 2);
  for (auto [u, v] : edges) {
    SPC_CHECK(u >= 0 && u < n && v >= 0 && v < n,
              "Graph::from_edges: edge endpoint out of range");
    if (u == v) continue;
    sym.emplace_back(u, v);
    sym.emplace_back(v, u);
  }
  std::sort(sym.begin(), sym.end());
  sym.erase(std::unique(sym.begin(), sym.end()), sym.end());

  std::vector<i64> ptr(static_cast<std::size_t>(n) + 1, 0);
  for (auto [u, v] : sym) ++ptr[static_cast<std::size_t>(u) + 1];
  for (idx v = 0; v < n; ++v) ptr[v + 1] += ptr[v];
  std::vector<idx> adj(sym.size());
  std::vector<i64> cursor(ptr.begin(), ptr.end() - 1);
  for (auto [u, v] : sym) adj[static_cast<std::size_t>(cursor[u]++)] = v;
  return Graph(n, std::move(ptr), std::move(adj));
}

void Graph::validate() const {
  SPC_CHECK(static_cast<idx>(ptr_.size()) == n_ + 1, "Graph: bad ptr size");
  SPC_CHECK(ptr_[0] == 0 && ptr_[n_] == static_cast<i64>(adj_.size()),
            "Graph: bad ptr bounds");
  for (idx v = 0; v < n_; ++v) {
    SPC_CHECK(ptr_[v] <= ptr_[v + 1], "Graph: ptr not monotone");
    for (i64 k = ptr_[v]; k < ptr_[v + 1]; ++k) {
      const idx u = adj_[static_cast<std::size_t>(k)];
      SPC_CHECK(u >= 0 && u < n_ && u != v, "Graph: neighbor out of range");
      if (k > ptr_[v]) {
        SPC_CHECK(adj_[static_cast<std::size_t>(k - 1)] < u,
                  "Graph: neighbors not strictly sorted");
      }
      // Symmetry: v must appear in u's list.
      SPC_CHECK(std::binary_search(adj_begin(u), adj_end(u), v),
                "Graph: adjacency not symmetric");
    }
  }
}

std::vector<idx> connected_components(const Graph& g, idx* count) {
  const idx n = g.num_vertices();
  std::vector<idx> comp(static_cast<std::size_t>(n), kNone);
  idx next = 0;
  std::vector<idx> stack;
  for (idx v = 0; v < n; ++v) {
    if (comp[static_cast<std::size_t>(v)] != kNone) continue;
    comp[static_cast<std::size_t>(v)] = next;
    stack.push_back(v);
    while (!stack.empty()) {
      const idx u = stack.back();
      stack.pop_back();
      for (const idx* p = g.adj_begin(u); p != g.adj_end(u); ++p) {
        if (comp[static_cast<std::size_t>(*p)] == kNone) {
          comp[static_cast<std::size_t>(*p)] = next;
          stack.push_back(*p);
        }
      }
    }
    ++next;
  }
  if (count != nullptr) *count = next;
  return comp;
}

SymSparse SymSparse::from_entries(idx n, const std::vector<double>& diag,
                                  const std::vector<std::pair<idx, idx>>& offdiag_pos,
                                  const std::vector<double>& offdiag_val) {
  SPC_CHECK(static_cast<idx>(diag.size()) == n, "SymSparse: diag size mismatch");
  SPC_CHECK(offdiag_pos.size() == offdiag_val.size(),
            "SymSparse: entry/value size mismatch");
  // Normalize to strictly-lower coordinates (r > c), then sort by (col, row).
  struct Entry {
    idx r, c;
    double v;
  };
  std::vector<Entry> entries;
  entries.reserve(offdiag_pos.size());
  for (std::size_t k = 0; k < offdiag_pos.size(); ++k) {
    auto [a, b] = offdiag_pos[k];
    SPC_CHECK(a >= 0 && a < n && b >= 0 && b < n, "SymSparse: index out of range");
    SPC_CHECK(a != b, "SymSparse: off-diagonal entry on the diagonal");
    const idx r = std::max(a, b);
    const idx c = std::min(a, b);
    entries.push_back({r, c, offdiag_val[k]});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    return x.c != y.c ? x.c < y.c : x.r < y.r;
  });

  SymSparse m;
  m.n_ = n;
  m.ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  m.row_.reserve(entries.size() + static_cast<std::size_t>(n));
  m.val_.reserve(entries.size() + static_cast<std::size_t>(n));
  std::size_t k = 0;
  for (idx c = 0; c < n; ++c) {
    m.row_.push_back(c);
    m.val_.push_back(diag[c]);
    while (k < entries.size() && entries[k].c == c) {
      // Sum duplicates.
      if (!m.row_.empty() && m.row_.back() == entries[k].r &&
          m.row_.back() != c) {
        m.val_.back() += entries[k].v;
      } else {
        m.row_.push_back(entries[k].r);
        m.val_.push_back(entries[k].v);
      }
      ++k;
    }
    m.ptr_[c + 1] = static_cast<i64>(m.row_.size());
  }
  SPC_CHECK(k == entries.size(), "SymSparse: unconsumed entries");
  return m;
}

SymSparse SymSparse::from_csc(idx n, std::vector<i64> col_ptr, std::vector<idx> row_idx,
                              std::vector<double> values) {
  SymSparse m(n, std::move(col_ptr), std::move(row_idx), std::move(values));
  m.validate();
  return m;
}

Graph SymSparse::pattern() const {
  // adj(v) = the columns c < v that hold row v, then column v's rows below the
  // diagonal. Both counting sweeps emit ascending indices.
  std::vector<i64> ptr(static_cast<std::size_t>(n_) + 1, 0);
  for (idx c = 0; c < n_; ++c) {
    ptr[c + 1] += ptr_[c + 1] - ptr_[c] - 1;
    for (i64 k = ptr_[c] + 1; k < ptr_[c + 1]; ++k) ++ptr[row_[k] + 1];
  }
  for (idx v = 0; v < n_; ++v) ptr[v + 1] += ptr[v];
  std::vector<idx> adj(static_cast<std::size_t>(ptr[n_]));
  std::vector<i64> cursor(ptr.begin(), ptr.end() - 1);
  for (idx c = 0; c < n_; ++c) {
    for (i64 k = ptr_[c] + 1; k < ptr_[c + 1]; ++k) adj[cursor[row_[k]]++] = c;
  }
  for (idx v = 0; v < n_; ++v) {
    std::copy(row_.begin() + ptr_[v] + 1, row_.begin() + ptr_[v + 1], adj.begin() + cursor[v]);
  }
  return Graph(n_, std::move(ptr), std::move(adj));
}

SymSparse SymSparse::permuted(const std::vector<idx>& perm) const {
  SPC_CHECK(static_cast<idx>(perm.size()) == n_, "SymSparse::permuted: size mismatch");
  const std::vector<idx> inv = inverse_permutation(perm);
  // Off-diagonal (r, c) lands in new row max(inv[r], inv[c]) of new column
  // min(...). Bucket the entries by new row, then sweep the rows in order into
  // their columns, each led by its diagonal: rows come out ascending.
  const auto each_offdiag = [&](auto&& f) {
    for (idx c = 0; c < n_; ++c) {
      for (i64 k = ptr_[c] + 1; k < ptr_[c + 1]; ++k) {
        const idx i = inv[row_[k]];
        f(std::max(i, inv[c]), std::min(i, inv[c]), k);
      }
    }
  };
  std::vector<i64> rptr(static_cast<std::size_t>(n_) + 1, 0);
  std::vector<i64> cptr(static_cast<std::size_t>(n_) + 1, 0);
  each_offdiag([&](idx i, idx j, i64) { ++rptr[i + 1]; ++cptr[j + 1]; });
  for (idx v = 0; v < n_; ++v) {
    rptr[v + 1] += rptr[v];
    cptr[v + 1] += cptr[v] + 1;  // + the diagonal
  }
  std::vector<idx> bcol(static_cast<std::size_t>(rptr[n_]));
  std::vector<double> bval(bcol.size());
  std::vector<i64> cursor(rptr.begin(), rptr.end() - 1);
  each_offdiag([&](idx i, idx j, i64 k) {
    const i64 at = cursor[i]++;
    bcol[at] = j;
    bval[at] = val_[k];
  });
  std::vector<idx> row(row_.size());
  std::vector<double> val(row_.size());
  for (idx c = 0; c < n_; ++c) {
    const idx j = inv[c];
    row[cptr[j]] = j;
    val[cptr[j]] = val_[ptr_[c]];
    cursor[j] = cptr[j] + 1;
  }
  for (idx i = 0; i < n_; ++i) {
    for (i64 e = rptr[i]; e < rptr[i + 1]; ++e) {
      const i64 at = cursor[bcol[e]]++;
      row[at] = i;
      val[at] = bval[e];
    }
  }
  return SymSparse(n_, std::move(cptr), std::move(row), std::move(val));
}

std::vector<double> SymSparse::multiply(const std::vector<double>& x) const {
  SPC_CHECK(static_cast<idx>(x.size()) == n_, "SymSparse::multiply: size mismatch");
  std::vector<double> y(static_cast<std::size_t>(n_), 0.0);
  for (idx c = 0; c < n_; ++c) {
    for (i64 k = ptr_[c]; k < ptr_[c + 1]; ++k) {
      const idx r = row_[static_cast<std::size_t>(k)];
      const double v = val_[static_cast<std::size_t>(k)];
      y[static_cast<std::size_t>(r)] += v * x[static_cast<std::size_t>(c)];
      if (r != c) y[static_cast<std::size_t>(c)] += v * x[static_cast<std::size_t>(r)];
    }
  }
  return y;
}

void SymSparse::validate() const {
  SPC_CHECK(static_cast<idx>(ptr_.size()) == n_ + 1, "SymSparse: bad ptr size");
  SPC_CHECK(ptr_[0] == 0 && ptr_[n_] == static_cast<i64>(row_.size()),
            "SymSparse: bad ptr bounds");
  SPC_CHECK(row_.size() == val_.size(), "SymSparse: row/val size mismatch");
  for (idx c = 0; c < n_; ++c) {
    SPC_CHECK(ptr_[c] < ptr_[c + 1], "SymSparse: empty column (missing diagonal)");
    SPC_CHECK(row_[static_cast<std::size_t>(ptr_[c])] == c,
              "SymSparse: first entry of column must be the diagonal");
    SPC_CHECK(val_[static_cast<std::size_t>(ptr_[c])] > 0.0,
              "SymSparse: diagonal must be positive");
    for (i64 k = ptr_[c] + 1; k < ptr_[c + 1]; ++k) {
      SPC_CHECK(row_[static_cast<std::size_t>(k)] > row_[static_cast<std::size_t>(k - 1)],
                "SymSparse: rows not strictly increasing");
      SPC_CHECK(row_[static_cast<std::size_t>(k)] < n_, "SymSparse: row out of range");
    }
  }
}

}  // namespace spc
