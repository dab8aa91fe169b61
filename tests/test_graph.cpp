// Unit tests for graph structures, permutations, and Matrix Market I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "graph/graph.hpp"
#include "graph/matrix_market.hpp"
#include "graph/permutation.hpp"
#include "ordering/mmd.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

TEST(Graph, FromEdgesSymmetrizesAndDedupes) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 0}, {1, 2}, {2, 2}, {1, 2}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 2);  // (0,1), (1,2); self loop dropped
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 0);
  g.validate();
}

TEST(Graph, RejectsOutOfRange) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 5}}), Error);
}

TEST(Graph, ConnectedComponents) {
  const Graph g = Graph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}});
  idx count = 0;
  const std::vector<idx> comp = connected_components(g, &count);
  EXPECT_EQ(count, 4);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[6]);
}

TEST(Graph, ConnectedComponentsSingleComponent) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i + 1 < 30; ++i) edges.emplace_back(i, i + 1);
  idx count = 0;
  connected_components(Graph::from_edges(30, edges), &count);
  EXPECT_EQ(count, 1);
}

TEST(Permutation, InverseRoundTrips) {
  const std::vector<idx> p = {2, 0, 3, 1};
  const std::vector<idx> inv = inverse_permutation(p);
  for (idx k = 0; k < 4; ++k) EXPECT_EQ(inv[p[k]], k);
}

TEST(Permutation, DetectsInvalid) {
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 3}));
  EXPECT_TRUE(is_permutation({1, 0, 2}));
  EXPECT_THROW(inverse_permutation({1, 1}), Error);
}

TEST(Permutation, ComposeAppliesSecondAfterFirst) {
  const std::vector<idx> first = {2, 0, 1};
  const std::vector<idx> second = {1, 2, 0};
  const std::vector<idx> c = compose_permutations(first, second);
  // c[k] = first[second[k]]
  EXPECT_EQ(c, (std::vector<idx>{0, 1, 2}));
}

TEST(Permutation, IdentityIsIdentity) {
  EXPECT_EQ(identity_permutation(3), (std::vector<idx>{0, 1, 2}));
}

SymSparse tiny_spd() {
  // 3x3: diag [4,5,6], offdiag (1,0)=-1, (2,1)=-2
  return SymSparse::from_entries(3, {4.0, 5.0, 6.0}, {{1, 0}, {2, 1}}, {-1.0, -2.0});
}

TEST(SymSparse, CanonicalForm) {
  const SymSparse m = tiny_spd();
  m.validate();
  EXPECT_EQ(m.num_rows(), 3);
  EXPECT_EQ(m.nnz_lower(), 5);
  EXPECT_EQ(m.row_idx()[0], 0);  // diagonal first in column 0
}

TEST(SymSparse, DuplicatesSummed) {
  const SymSparse m = SymSparse::from_entries(2, {3.0, 3.0}, {{1, 0}, {0, 1}}, {-1.0, -0.5});
  EXPECT_EQ(m.nnz_lower(), 3);
  EXPECT_DOUBLE_EQ(m.values()[1], -1.5);
}

TEST(SymSparse, MultiplyUsesBothTriangles) {
  const SymSparse m = tiny_spd();
  const std::vector<double> y = m.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);   // 4 - 1
  EXPECT_DOUBLE_EQ(y[1], 2.0);   // -1 + 5 - 2
  EXPECT_DOUBLE_EQ(y[2], 4.0);   // -2 + 6
}

TEST(SymSparse, PermutedPreservesQuadraticForm) {
  const SymSparse m = tiny_spd();
  const std::vector<idx> perm = {2, 0, 1};
  const SymSparse p = m.permuted(perm);
  p.validate();
  // x^T A x invariant under symmetric permutation (permute x accordingly).
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> px(3);
  for (idx k = 0; k < 3; ++k) px[k] = x[static_cast<std::size_t>(perm[k])];
  const std::vector<double> ax = m.multiply(x);
  const std::vector<double> pax = p.multiply(px);
  double qa = 0.0, qb = 0.0;
  for (idx k = 0; k < 3; ++k) {
    qa += x[k] * ax[k];
    qb += px[k] * pax[k];
  }
  EXPECT_NEAR(qa, qb, 1e-12);
}

TEST(SymSparse, PatternDropsDiagonal) {
  const Graph g = tiny_spd().pattern();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(SymSparse, RejectsDiagonalInOffdiagList) {
  EXPECT_THROW(SymSparse::from_entries(2, {1.0, 1.0}, {{1, 1}}, {2.0}), Error);
}

TEST(MatrixMarket, RoundTrip) {
  const SymSparse m = tiny_spd();
  std::ostringstream os;
  write_matrix_market(os, m);
  std::istringstream is(os.str());
  const SymSparse back = read_matrix_market(is);
  back.validate();
  EXPECT_EQ(back.num_rows(), 3);
  EXPECT_EQ(back.nnz_lower(), 5);
  EXPECT_DOUBLE_EQ(back.values()[0], 4.0);
}

TEST(MatrixMarket, PatternFileGetsSpdValues) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  const SymSparse m = read_matrix_market(is);
  m.validate();  // validates positive diagonal, i.e. SPD-ready
  EXPECT_EQ(m.num_rows(), 3);
  EXPECT_EQ(m.nnz_lower(), 5);
}

TEST(MatrixMarket, BoostsWeakDiagonal) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 3\n"
      "1 1 0.1\n"
      "2 2 0.1\n"
      "2 1 -5.0\n");
  bool boosted = false;
  const SymSparse m = read_matrix_market(is, &boosted);
  EXPECT_TRUE(boosted);
  m.validate();
  EXPECT_GE(m.values()[0], 5.0);
}

TEST(MatrixMarket, RejectsGeneralSymmetry) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(is), Error);
}

TEST(MatrixMarket, RejectsTruncated) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(is), Error);
}

TEST(SymSparse, FromCscAdoptsCanonicalArrays) {
  const SymSparse m = tiny_spd();
  const SymSparse a = SymSparse::from_csc(3, m.col_ptr(), m.row_idx(), m.values());
  EXPECT_EQ(a.col_ptr(), m.col_ptr());
  EXPECT_EQ(a.row_idx(), m.row_idx());
  EXPECT_EQ(a.values(), m.values());
  // Rows out of order in column 1: rejected, not re-sorted.
  EXPECT_THROW(SymSparse::from_csc(3, {0, 2, 4, 5}, {0, 1, 1, 0, 2},
                                   {4.0, -1.0, 5.0, -2.0, 6.0}),
               Error);
}

// --- differential: counting builders vs the sort-based ones -----------------
//
// pattern() and permuted() are counting passes. The references below feed the
// same triples through the sort-based builders, Graph::from_edges and
// SymSparse::from_entries; the results must agree bitwise.

Graph reference_pattern(const SymSparse& a) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx c = 0; c < a.num_rows(); ++c) {
    for (i64 k = a.col_ptr()[c] + 1; k < a.col_ptr()[c + 1]; ++k) {
      edges.emplace_back(a.row_idx()[static_cast<std::size_t>(k)], c);
    }
  }
  return Graph::from_edges(a.num_rows(), edges);
}

SymSparse reference_permuted(const SymSparse& a, const std::vector<idx>& perm) {
  const std::vector<idx> inv = inverse_permutation(perm);
  std::vector<double> diag(static_cast<std::size_t>(a.num_rows()));
  std::vector<std::pair<idx, idx>> pos;
  std::vector<double> val;
  for (idx c = 0; c < a.num_rows(); ++c) {
    const i64 d = a.col_ptr()[c];
    diag[static_cast<std::size_t>(inv[c])] = a.values()[static_cast<std::size_t>(d)];
    for (i64 k = d + 1; k < a.col_ptr()[c + 1]; ++k) {
      pos.emplace_back(inv[a.row_idx()[static_cast<std::size_t>(k)]], inv[c]);
      val.push_back(a.values()[static_cast<std::size_t>(k)]);
    }
  }
  return SymSparse::from_entries(a.num_rows(), diag, pos, val);
}

std::vector<std::pair<std::string, SymSparse>> differential_inputs() {
  std::vector<std::pair<std::string, SymSparse>> in;
  in.emplace_back("n=1", SymSparse::from_entries(1, {2.0}, {}, {}));
  in.emplace_back("diagonal", SymSparse::from_entries(5, {1, 2, 3, 4, 5}, {}, {}));
  in.emplace_back("grid2d", make_grid2d(9, 7));
  in.emplace_back("grid2d_9pt", make_grid2d_9pt(6, 11));
  in.emplace_back("grid3d", make_grid3d(5, 4, 3));
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    MeshGenOptions m;
    m.nodes = 60 + 40 * static_cast<idx>(seed);
    m.dof = static_cast<idx>(seed);
    m.dim = seed == 2 ? 2 : 3;
    m.seed = seed;
    in.emplace_back("mesh seed " + std::to_string(seed), make_fem_mesh(m));
    LpGenOptions l;
    l.n = 150 * static_cast<idx>(seed);
    l.mean_overlap = 6.0 * static_cast<double>(seed);
    l.seed = seed;
    in.emplace_back("lp seed " + std::to_string(seed), make_lp_normal_equations(l));
  }
  return in;
}

std::vector<std::pair<std::string, std::vector<idx>>> differential_perms(const SymSparse& a,
                                                                       std::uint64_t seed) {
  const idx n = a.num_rows();
  std::vector<std::pair<std::string, std::vector<idx>>> out;
  out.emplace_back("identity", identity_permutation(n));
  std::vector<idx> rev = identity_permutation(n);
  std::reverse(rev.begin(), rev.end());
  out.emplace_back("reverse", rev);
  std::vector<idx> rnd = identity_permutation(n);
  Rng rng(seed);
  for (idx k = n - 1; k > 0; --k) {
    std::swap(rnd[static_cast<std::size_t>(k)],
              rnd[rng.next_below(static_cast<std::uint64_t>(k) + 1)]);
  }
  out.emplace_back("random", rnd);
  out.emplace_back("mmd", mmd_order(a.pattern()));
  return out;
}

TEST(Differential, PatternMatchesSortedEdgeBuild) {
  for (const auto& [name, a] : differential_inputs()) {
    const Graph g = a.pattern();
    const Graph ref = reference_pattern(a);
    g.validate();
    EXPECT_EQ(g.num_vertices(), ref.num_vertices()) << name;
    EXPECT_EQ(g.ptr(), ref.ptr()) << name;
    EXPECT_EQ(g.adj(), ref.adj()) << name;
  }
}

TEST(Differential, PermutedAndEtreeMatchSortedRebuild) {
  std::uint64_t seed = 100;
  for (const auto& [name, a] : differential_inputs()) {
    for (const auto& [pname, perm] : differential_perms(a, ++seed)) {
      const SymSparse p = a.permuted(perm);
      const SymSparse ref = reference_permuted(a, perm);
      p.validate();
      EXPECT_EQ(p.num_rows(), ref.num_rows()) << name << " / " << pname;
      EXPECT_EQ(p.col_ptr(), ref.col_ptr()) << name << " / " << pname;
      EXPECT_EQ(p.row_idx(), ref.row_idx()) << name << " / " << pname;
      EXPECT_EQ(p.values(), ref.values()) << name << " / " << pname;
      EXPECT_EQ(elimination_tree(a, perm), elimination_tree(p)) << name << " / " << pname;
    }
  }
}

}  // namespace
}  // namespace spc
