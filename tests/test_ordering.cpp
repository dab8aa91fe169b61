// Unit tests for the ordering algorithms: MMD, geometric and general nested
// dissection. Quality assertions compare fill against natural order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "gen/benchmark_suite.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "graph/permutation.hpp"
#include "ordering/geometric_nd.hpp"
#include "ordering/mmd.hpp"
#include "ordering/nested_dissection.hpp"
#include "support/error.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

i64 fill_under(const SymSparse& a, const std::vector<idx>& perm) {
  const SymSparse p = a.permuted(perm);
  return factor_nnz(factor_col_counts(p, elimination_tree(p)));
}

TEST(Mmd, ReturnsPermutation) {
  const SymSparse a = make_grid2d(7, 9);
  const std::vector<idx> p = mmd_order(a.pattern());
  EXPECT_TRUE(is_permutation(p));
}

TEST(Mmd, EmptyGraph) { EXPECT_TRUE(mmd_order(Graph::from_edges(0, {})).empty()); }

TEST(Mmd, SingletonAndIsolated) {
  const Graph g = Graph::from_edges(3, {{0, 2}});
  const std::vector<idx> p = mmd_order(g);
  EXPECT_TRUE(is_permutation(p));
  // Vertex 1 is isolated (degree 0) and must be eliminated first.
  EXPECT_EQ(p[0], 1);
}

TEST(Mmd, PathGraphIsFillFree) {
  // A path has a perfect elimination ordering; MMD must find zero fill:
  // NZ(L) offdiag == #edges.
  const idx n = 50;
  std::vector<std::pair<idx, idx>> edges;
  std::vector<double> diag(n, 3.0), val(n - 1, -1.0);
  for (idx i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const SymSparse a = SymSparse::from_entries(n, diag, edges, val);
  EXPECT_EQ(fill_under(a, mmd_order(a.pattern())), n - 1);
}

TEST(Mmd, StarGraphIsFillFree) {
  const idx n = 30;
  std::vector<std::pair<idx, idx>> edges;
  std::vector<double> diag(n, static_cast<double>(n)), val(n - 1, -1.0);
  for (idx i = 1; i < n; ++i) edges.emplace_back(0, i);
  const SymSparse a = SymSparse::from_entries(n, diag, edges, val);
  // Perfect elimination: leaves first, hub last.
  const std::vector<idx> p = mmd_order(a.pattern());
  EXPECT_EQ(p.back(), 0);
  EXPECT_EQ(fill_under(a, p), n - 1);
}

TEST(Mmd, CliquePlusPendantIsFillFree) {
  // K5 with a pendant vertex: pendant (degree 1) first, clique order free.
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i < 5; ++i) {
    for (idx j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(4, 5);
  std::vector<double> diag(6, 10.0), val(edges.size(), -1.0);
  const SymSparse a = SymSparse::from_entries(6, diag, edges, val);
  EXPECT_EQ(fill_under(a, mmd_order(a.pattern())), static_cast<i64>(edges.size()));
}

TEST(Mmd, BeatsNaturalOrderOnGrid) {
  const SymSparse a = make_grid2d(20, 20);
  const i64 fill_mmd = fill_under(a, mmd_order(a.pattern()));
  const i64 fill_nat = fill_under(a, identity_permutation(a.num_rows()));
  EXPECT_LT(fill_mmd, fill_nat / 2);
}

TEST(Mmd, DeterministicAcrossRuns) {
  const SymSparse a = make_grid3d(5, 5, 5);
  EXPECT_EQ(mmd_order(a.pattern()), mmd_order(a.pattern()));
}

TEST(Mmd, MassEliminationOnCompleteBipartite) {
  // K_{2,6}: eliminating one side's vertex makes the other side's vertices
  // indistinguishable/mass-eliminable; just verify validity + zero-ish fill.
  std::vector<std::pair<idx, idx>> edges;
  for (idx a = 0; a < 2; ++a) {
    for (idx b = 2; b < 8; ++b) edges.emplace_back(a, b);
  }
  std::vector<double> diag(8, 10.0), val(edges.size(), -1.0);
  const SymSparse m = SymSparse::from_entries(8, diag, edges, val);
  const std::vector<idx> p = mmd_order(m.pattern());
  EXPECT_TRUE(is_permutation(p));
  // Optimal fill for K_{2,6} is small; MMD should be near it.
  EXPECT_LE(fill_under(m, p), 14);
}

// 64-bit FNV-1a over an ordering, each index as 4 little-endian bytes (the
// same hash Facade.GoldenDefaultAnalyze pins).
std::uint64_t fnv1a(const std::vector<idx>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (idx x : v) {
    const auto u = static_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

Graph lp_pattern(idx n, double mean_overlap, idx hubs, double hub_span,
                 std::uint64_t seed) {
  LpGenOptions o;
  o.n = n;
  o.mean_overlap = mean_overlap;
  o.hubs = hubs;
  o.hub_span = hub_span;
  o.seed = seed;
  return make_lp_normal_equations(o).pattern();
}

Graph mesh_pattern(idx nodes, idx dof, int dim, std::uint64_t seed) {
  MeshGenOptions o;
  o.nodes = nodes;
  o.dof = dof;
  o.dim = dim;
  o.seed = seed;
  return make_fem_mesh(o).pattern();
}

// Golden orderings: every hash was recorded before the element-anchored
// degree update replaced the per-variable external-degree scan, and must not
// move with it (exact degrees and tie-breaking are unchanged). The path and
// the double star make one variable border two pivots of the same multiple
// elimination step; nested dissection runs mmd_order on its leaves.
TEST(OrderingGolden, CorpusHashesMatchRecorded) {
  struct Golden {
    const char* name;
    std::uint64_t mmd, mmd_delta1, amd, nd;
  };
  const Golden golden[] = {
      {"lp2000_s11", 0xef528b2a71266667ULL, 0x908491d6be143c2bULL, 0x590bc04c570c939fULL,
       0xac463c71b4df461bULL},
      {"lp2000_s5", 0x7836560a375e339bULL, 0x758af2e139dc8757ULL, 0x28d66549e24ad753ULL,
       0xe5eaf74606c56387ULL},
      {"lp3000_s42", 0x6155cf92566affbbULL, 0x2c3909f8749f3edfULL, 0xd5bcc8e8a24a0013ULL,
       0xd1d5db32d547e8a3ULL},
      {"lp6000_serve", 0xbf6b8eff5242c537ULL, 0x31e2981f9da09cbfULL, 0xbf6f76d9c58823bbULL,
       0xec0f341564da7527ULL},
      {"mesh3d", 0xcf57381c1874d05fULL, 0x090fe1d9be43842fULL, 0xa06e8a4de4e0de63ULL,
       0xb66eff9daee8e3fbULL},
      {"mesh2d", 0x55152537465cdc07ULL, 0x34d382747d8ba31fULL, 0x0fb17efa85fedf77ULL,
       0x7fa6b3ccfe570b0fULL},
      {"mesh3d_dof1", 0x0f55dcc8a1afada7ULL, 0x4b2e8d37355b0d6bULL, 0xe92f94e2d5d106cbULL,
       0xe5935fbdce3e5da7ULL},
      {"grid2d", 0x246903b32645cfc7ULL, 0xd0fd1eea05cca1e7ULL, 0xef3ef7857779632bULL,
       0x255b261427594cafULL},
      {"grid3d", 0xc91908bafde90077ULL, 0x64c3e72c19b7cf97ULL, 0x7ed59079e4dfb463ULL,
       0xcc019e75f16a5d27ULL},
      {"BCSSTK15", 0x09a71db292aa54a7ULL, 0x21243b9ed197aae7ULL, 0xe3a0b741c42a7ad3ULL,
       0xfded0efd5010f25bULL},
      {"10FLEET", 0x2c0edd089dbd167bULL, 0xe37cd7677157556fULL, 0x6ee2500edeedd9cfULL,
       0xc53ca04ca5ffcfd7ULL},
      {"path", 0xc98b53eab2e441f3ULL, 0x4391500df626c333ULL, 0x58cccc51941e34d7ULL,
       0xefd68b59700af72fULL},
      {"double_star", 0x8023fc6a18919382ULL, 0x8023fc6a18919382ULL, 0x78a73e48a3ca0e52ULL,
       0x8023fc6a18919382ULL},
  };

  std::vector<std::pair<std::string, Graph>> corpus;
  corpus.emplace_back("lp2000_s11", make_lp_normal_equations(LpGenOptions{}).pattern());
  corpus.emplace_back("lp2000_s5", lp_pattern(2000, 30, 0, 0.02, 5));
  corpus.emplace_back("lp3000_s42", lp_pattern(3000, 60, 20, 0.03, 42));
  corpus.emplace_back("lp6000_serve", lp_pattern(6000, 200, 48, 0.05, 11));
  corpus.emplace_back("mesh3d", make_fem_mesh(MeshGenOptions{}).pattern());
  corpus.emplace_back("mesh2d", mesh_pattern(1500, 2, 2, 3));
  corpus.emplace_back("mesh3d_dof1", mesh_pattern(3000, 1, 3, 19));
  corpus.emplace_back("grid2d", make_grid2d(30, 40).pattern());
  corpus.emplace_back("grid3d", make_grid3d(10, 12, 9).pattern());
  corpus.emplace_back("BCSSTK15",
                      make_bench_matrix("BCSSTK15", SuiteScale::kSmall).matrix.pattern());
  corpus.emplace_back("10FLEET",
                      make_bench_matrix("10FLEET", SuiteScale::kSmall).matrix.pattern());
  {
    std::vector<std::pair<idx, idx>> edges;
    for (idx i = 0; i + 1 < 300; ++i) edges.emplace_back(i, i + 1);
    corpus.emplace_back("path", Graph::from_edges(300, edges));
  }
  {
    // Hubs 0 and 1, joined; 40 leaves alternate between them and 8 more
    // border both.
    std::vector<std::pair<idx, idx>> edges{{0, 1}};
    for (idx i = 2; i < 42; ++i) edges.emplace_back(i % 2, i);
    for (idx i = 42; i < 50; ++i) {
      edges.emplace_back(0, i);
      edges.emplace_back(1, i);
    }
    corpus.emplace_back("double_star", Graph::from_edges(50, edges));
  }

  ASSERT_EQ(corpus.size(), std::size(golden));
  MmdOptions delta1;
  delta1.delta = 1;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    const Golden& want = golden[k];
    const auto& [name, g] = corpus[k];
    ASSERT_EQ(name, want.name);
    const std::vector<idx> mmd = mmd_order(g);
    ASSERT_TRUE(is_permutation(mmd)) << name;
    EXPECT_EQ(fnv1a(mmd), want.mmd) << name << " mmd";
    EXPECT_EQ(fnv1a(mmd_order(g, delta1)), want.mmd_delta1) << name << " mmd delta=1";
    EXPECT_EQ(fnv1a(amd_order(g)), want.amd) << name << " amd";
    EXPECT_EQ(fnv1a(nested_dissection_order(g)), want.nd) << name << " nd";
  }
}

TEST(GeometricNd2d, IsPermutation) {
  const std::vector<idx> p = geometric_nd_2d(15, 11);
  EXPECT_TRUE(is_permutation(p));
}

TEST(GeometricNd2d, SeparatorLast) {
  // For an odd square grid the final vertex ordered must lie on the central
  // cross (the top-level separator).
  const idx k = 9;
  const std::vector<idx> p = geometric_nd_2d(k, k);
  const idx last = p.back();
  const idx x = last % k, y = last / k;
  EXPECT_TRUE(x == k / 2 || y == k / 2);
}

TEST(GeometricNd2d, NearOptimalFillScaling) {
  // ND fill for a k x k grid is O(n log n); natural order is O(n^1.5).
  const idx k = 32;
  const SymSparse a = make_grid2d(k, k);
  const i64 fill_nd = fill_under(a, geometric_nd_2d(k, k));
  const i64 fill_nat = fill_under(a, identity_permutation(a.num_rows()));
  EXPECT_LT(fill_nd, fill_nat / 2);
  EXPECT_LT(fill_nd, 12 * static_cast<i64>(k) * k * 5);  // ~ c n log n sanity
}

TEST(GeometricNd3d, IsPermutationAndOrdersCube) {
  const std::vector<idx> p = geometric_nd_3d(7, 6, 5);
  EXPECT_TRUE(is_permutation(p));
  const SymSparse a = make_grid3d(7, 6, 5);
  const i64 fill = fill_under(a, geometric_nd_3d(7, 6, 5));
  EXPECT_GT(fill, 0);
}

TEST(GeometricNd, RejectsBadArgs) {
  EXPECT_THROW(geometric_nd_2d(0, 5), Error);
  EXPECT_THROW(geometric_nd_3d(2, 2, 0), Error);
  EXPECT_THROW(geometric_nd_2d(4, 4, 0), Error);
}

TEST(GeneralNd, IsPermutation) {
  const SymSparse a = make_grid2d(17, 13);
  const std::vector<idx> p = nested_dissection_order(a.pattern());
  EXPECT_TRUE(is_permutation(p));
}

TEST(GeneralNd, HandlesDisconnected) {
  // Two disjoint triangles plus an isolated vertex.
  const Graph g = Graph::from_edges(
      7, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  const std::vector<idx> p = nested_dissection_order(g, NdOptions{2});
  EXPECT_TRUE(is_permutation(p));
}

TEST(GeneralNd, ComparableFillToMmdOnGrid) {
  const SymSparse a = make_grid2d(24, 24);
  const i64 fill_nd = fill_under(a, nested_dissection_order(a.pattern()));
  const i64 fill_mmd = fill_under(a, mmd_order(a.pattern()));
  EXPECT_LT(fill_nd, fill_mmd * 3);  // same ballpark
}

TEST(BfsSeparator, SplitsPath) {
  // Path 0-1-...-9: separator should be a single middle vertex.
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  const Graph g = Graph::from_edges(10, edges);
  std::vector<idx> verts(10);
  for (idx i = 0; i < 10; ++i) verts[i] = i;
  std::vector<idx> a, b, sep;
  bfs_vertex_separator(g, verts, a, b, sep);
  EXPECT_EQ(a.size() + b.size() + sep.size(), 10u);
  EXPECT_FALSE(a.empty());
  EXPECT_FALSE(b.empty());
  EXPECT_LE(sep.size(), 1u);
  // No edge may cross directly between the two sides.
  std::vector<int> side(10, 0);
  for (idx v : a) side[v] = 1;
  for (idx v : b) side[v] = 2;
  for (auto [u, v] : edges) {
    EXPECT_FALSE(side[u] != 0 && side[v] != 0 && side[u] != side[v])
        << "edge " << u << "-" << v << " crosses the separator";
  }
}

}  // namespace
}  // namespace spc
