// Facade-level tests: SparseCholesky analysis products, parallel planning,
// and cross-module consistency (integration tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/residual.hpp"
#include "gen/benchmark_suite.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "graph/permutation.hpp"
#include "ordering/mmd.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

TEST(Facade, OrderingIsValidPermutation) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(10, 12));
  EXPECT_TRUE(is_permutation(chol.ordering()));
  EXPECT_EQ(chol.num_rows(), 120);
}

TEST(Facade, PermutedMatrixConsistentWithOrdering) {
  const SymSparse a = make_fem_mesh({40, 2, 2, 8.0, 2});
  SparseCholesky chol = SparseCholesky::analyze(a);
  // a.permuted(ordering) must equal the stored permuted matrix.
  const SymSparse manual = a.permuted(chol.ordering());
  EXPECT_EQ(manual.col_ptr(), chol.permuted_matrix().col_ptr());
  EXPECT_EQ(manual.row_idx(), chol.permuted_matrix().row_idx());
}

// analyze_ordered reads the etree of A(perm, perm) off the pattern and moves
// the values once, into perm o post. It must equal the two-permute pipeline
// it replaced: permute by perm, take that matrix's etree and postorder, then
// permute again by post.
TEST(Facade, SingleValueMoveMatchesTwoPermutePipeline) {
  std::vector<SymSparse> inputs = {make_grid2d(13, 9), make_fem_mesh({70, 3, 3, 10.0, 5})};
  LpGenOptions lp;
  lp.n = 400;
  inputs.push_back(make_lp_normal_equations(lp));
  for (const SymSparse& a : inputs) {
    const std::vector<idx> perm = mmd_order(a.pattern());
    const SymSparse a1 = a.permuted(perm);
    const std::vector<idx> parent1 = elimination_tree(a1);
    const std::vector<idx> post = etree_postorder(parent1);
    const SymSparse a2 = a1.permuted(post);

    const SparseCholesky chol = SparseCholesky::analyze_ordered(a, perm);
    EXPECT_EQ(chol.ordering(), compose_permutations(perm, post));
    EXPECT_EQ(chol.etree_parent(), relabel_parent(parent1, post));
    EXPECT_EQ(chol.permuted_matrix().col_ptr(), a2.col_ptr());
    EXPECT_EQ(chol.permuted_matrix().row_idx(), a2.row_idx());
    EXPECT_EQ(chol.permuted_matrix().values(), a2.values());
  }
}

// 64-bit FNV-1a over the ordering, each index as 4 little-endian bytes.
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

// Pins the default analyze (MMD, etree postorder, symbolic) on fixed inputs,
// so a change to the ordering or to the data movement around it cannot slip
// by as "same fill, different order". The values were recorded before the
// sort-free pattern/permute builders landed and must not move with them.
// Larger check, outside this suite: the perfbench LP10000 request at seed 11
// (n=10000, mean_overlap=200, hubs=80, hub_span=0.05) must still give
// nnz(L) = 1,936,643, which its traced replay prints.
TEST(Facade, GoldenDefaultAnalyze) {
  const SparseCholesky lp = SparseCholesky::analyze(make_lp_normal_equations(LpGenOptions{}));
  EXPECT_EQ(lp.factor_nnz_exact(), 49592);
  EXPECT_EQ(lp.factor_flops_exact(), 1458472);
  EXPECT_EQ(fnv1a(lp.ordering()), 0x3e54e6535240d303ULL);

  const SparseCholesky mesh = SparseCholesky::analyze(make_fem_mesh(MeshGenOptions{}));
  EXPECT_EQ(mesh.factor_nnz_exact(), 499359);
  EXPECT_EQ(mesh.factor_flops_exact(), 141079886);
  EXPECT_EQ(fnv1a(mesh.ordering()), 0xe34f7d5f83543153ULL);
}

TEST(Facade, FactorStatsMatchDirectComputation) {
  const SymSparse a = make_grid2d(14, 14);
  SparseCholesky chol = SparseCholesky::analyze(a);
  const std::vector<i64> counts =
      factor_col_counts(chol.permuted_matrix(), chol.etree_parent());
  EXPECT_EQ(chol.factor_nnz_exact(), factor_nnz(counts));
  EXPECT_EQ(chol.factor_flops_exact(), factor_flops(counts));
}

TEST(Facade, FactorizedFlag) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(5, 5));
  EXPECT_FALSE(chol.factorized());
  EXPECT_THROW(chol.factor(), Error);
  chol.factorize();
  EXPECT_TRUE(chol.factorized());
}

TEST(Facade, SolveInOriginalOrder) {
  // The facade must hide the internal permutation completely: solve with a
  // b whose entries identify their index.
  const SymSparse a = make_grid2d(6, 7);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  std::vector<double> x_true(static_cast<std::size_t>(a.num_rows()));
  for (std::size_t i = 0; i < x_true.size(); ++i) x_true[i] = static_cast<double>(i);
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = chol.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST(Facade, BlockSizeOptionRespected) {
  SolverOptions opt;
  opt.block_size = 5;
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(12, 12), opt);
  for (idx b = 0; b < chol.structure().num_block_cols(); ++b) {
    EXPECT_LE(chol.structure().part.width(b), 5);
  }
}

TEST(Facade, AnalyzeOrderedRejectsBadPermutation) {
  EXPECT_THROW(
      SparseCholesky::analyze_ordered(make_grid2d(4, 4), std::vector<idx>{0, 1}),
      Error);
}

TEST(Plan, BalanceStatsPopulated) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(20, 20));
  const ParallelPlan plan = chol.plan_parallel(
      16, RemapHeuristic::kDecreasingWork, RemapHeuristic::kIncreasingDepth);
  EXPECT_GT(plan.balance.overall, 0.0);
  EXPECT_LE(plan.balance.overall, 1.0);
  plan.map.validate();
  EXPECT_EQ(plan.map.num_blocks(), chol.structure().num_block_cols());
}

TEST(Plan, DomainsToggle) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(24, 24));
  const ParallelPlan with = chol.plan_parallel(
      8, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic, true);
  const ParallelPlan without = chol.plan_parallel(
      8, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic, false);
  EXPECT_GT(with.domains.num_domains, 0);
  EXPECT_EQ(without.domains.num_domains, 0);
  // Domain work appears only in the domain plan.
  const i64 dom_work = std::accumulate(with.root_work.domain_work.begin(),
                                       with.root_work.domain_work.end(), i64{0});
  EXPECT_GT(dom_work, 0);
}

TEST(Plan, TotalWorkInvariantAcrossMappings) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(18, 18));
  const ParallelPlan a = chol.plan_parallel(
      4, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic, false);
  const ParallelPlan b = chol.plan_parallel(
      4, RemapHeuristic::kDecreasingWork, RemapHeuristic::kIncreasingDepth, false);
  EXPECT_EQ(a.root_work.total, b.root_work.total);
}

TEST(Integration, BalanceBoundsSimulatedEfficiency) {
  // The paper's central inequality: efficiency <= overall balance (modulo
  // communication/scheduling, which only lower efficiency further). Verified
  // without domains where the bound's attribution is exact.
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(28, 28));
  for (RemapHeuristic h : {RemapHeuristic::kCyclic, RemapHeuristic::kDecreasingWork}) {
    const ParallelPlan plan =
        chol.plan_parallel(16, h, RemapHeuristic::kCyclic, /*use_domains=*/false);
    const SimResult r = chol.simulate(plan);
    EXPECT_LE(r.efficiency(), plan.balance.overall * 1.15 + 0.02)
        << heuristic_name(h);
  }
}

TEST(Integration, HeuristicRemappingImprovesMeanSimulatedPerformance) {
  // End-to-end version of the paper's Table 5 claim: remapping improves
  // MEAN performance across the suite (individual small matrices are noisy).
  double ratio_sum = 0.0;
  double balance_gain_sum = 0.0;
  int count = 0;
  for (const BenchMatrix& bm : standard_suite(SuiteScale::kSmall)) {
    SolverOptions opt;
    opt.ordering = SolverOptions::Ordering::kNatural;
    SparseCholesky chol =
        SparseCholesky::analyze_ordered(bm.matrix, order_bench_matrix(bm), opt);
    const ParallelPlan cy = chol.plan_parallel(
        16, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic);
    const ParallelPlan id = chol.plan_parallel(
        16, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic);
    ratio_sum += chol.simulate(cy).runtime_s / chol.simulate(id).runtime_s;
    balance_gain_sum += id.balance.overall - cy.balance.overall;
    ++count;
  }
  EXPECT_GT(ratio_sum / count, 1.0) << "mean speedup of ID over cyclic";
  EXPECT_GT(balance_gain_sum / count, 0.05) << "mean overall-balance gain";
}

// --- Mixed precision (fp32 factorization + fp64 refinement) ----------------

TEST(Precision, Fp32RefineReachesFp64BackwardError) {
  // An fp32 factor carries roughly half the significand, so the raw factor
  // is only good to ~1e-7; the automatic fp64 refinement steps applied by
  // solve() must pull the normwise backward error back to fp64 levels —
  // from every factorization entry point, serial or parallel.
  LpGenOptions lpo;
  lpo.n = 400;
  const SymSparse cases[] = {make_grid3d(8, 8, 8),
                             make_lp_normal_equations(lpo)};
  const std::pair<const char*, std::function<void(SparseCholesky&)>> entries[] = {
      {"factorize", [](SparseCholesky& c) { c.factorize(); }},
      {"factorize_parallel(1)", [](SparseCholesky& c) { c.factorize_parallel(1); }},
      {"factorize_parallel(2)", [](SparseCholesky& c) { c.factorize_parallel(2); }},
      {"factorize_parallel(4)", [](SparseCholesky& c) { c.factorize_parallel(4); }},
      {"factorize_governed(1)", [](SparseCholesky& c) { c.factorize_governed(1); }},
      {"factorize_governed(2)", [](SparseCholesky& c) { c.factorize_governed(2); }},
      {"factorize_governed(4)", [](SparseCholesky& c) { c.factorize_governed(4); }},
  };
  for (const SymSparse& a : cases) {
    SolverOptions opt;
    opt.precision = SolverOptions::Precision::kFp32Refine;
    SparseCholesky chol = SparseCholesky::analyze(a, opt);
    Rng rng(31);
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    for (const auto& [name, factor] : entries) {
      factor(chol);
      EXPECT_TRUE(chol.factorize_info().fp32) << name;
      EXPECT_FALSE(chol.factorize_info().fp32_fallback) << name;
      const std::vector<double> x = chol.solve(b);
      EXPECT_LE(solve_residual(a, x, b), 1e-10)
          << name << " n=" << a.num_rows();
    }
  }
}

TEST(Precision, Fp32RefineWithPerturbedPivotsStaysBackwardStable) {
  // A pivot perturbed during the fp32 pass composes with mixed precision:
  // both sources of factor error are absorbed by the fp64 refinement.
  const SymSparse a0 = make_fem_mesh(
      {.nodes = 50, .dof = 2, .dim = 3, .avg_node_degree = 8.0, .seed = 5});
  const idx n = a0.num_rows();
  std::vector<double> diag(static_cast<std::size_t>(n));
  std::vector<std::pair<idx, idx>> pos;
  std::vector<double> val;
  const auto& ptr = a0.col_ptr();
  for (idx c = 0; c < n; ++c) {
    for (i64 k = ptr[static_cast<std::size_t>(c)];
         k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = a0.row_idx()[static_cast<std::size_t>(k)];
      const double v = a0.values()[static_cast<std::size_t>(k)];
      if (r == c) {
        diag[static_cast<std::size_t>(c)] = v;
      } else {
        pos.emplace_back(r, c);
        val.push_back(v);
      }
    }
  }
  diag[static_cast<std::size_t>(n / 2)] = 1e-30;
  const SymSparse a = SymSparse::from_entries(n, diag, pos, val);

  SolverOptions opt;
  opt.precision = SolverOptions::Precision::kFp32Refine;
  opt.pivot_policy = PivotPolicy::kPerturb;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_TRUE(chol.factorize_info().fp32);
  EXPECT_GE(chol.factorize_info().perturbed_pivots, 1);

  Rng rng(7);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> x = chol.solve(b);
  EXPECT_LE(solve_residual(a, x, b), 1e-10);
}

TEST(Precision, Fp32BreakdownFallsBackToFp64) {
  // b = 1 - 2^-25 rounds to exactly 1.0f, so the fp32 Schur complement of
  // the trailing pivot is 0 (strict breakdown) while the fp64 complement
  // stays positive. The facade must retry in fp64 transparently.
  const double b01 = 1.0 - std::ldexp(1.0, -25);
  const SymSparse a = SymSparse::from_entries(2, {1.0, 1.0}, {{1, 0}}, {b01});

  SolverOptions opt;
  opt.precision = SolverOptions::Precision::kFp32Refine;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_FALSE(chol.factorize_info().fp32);
  EXPECT_TRUE(chol.factorize_info().fp32_fallback);
  EXPECT_EQ(chol.factorize_info().perturbed_pivots, 0);

  const std::vector<double> b = {1.0, -1.0};
  const std::vector<double> x = chol.solve(b);
  EXPECT_LE(solve_residual(a, x, b), 1e-12);
}

TEST(Integration, NumericFactorUnaffectedByMappingAnalysis) {
  // plan_parallel/simulate are const and must not touch numeric state.
  const SymSparse a = make_grid2d(10, 10);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const double before = factor_residual_probe(chol.permuted_matrix(), chol.factor());
  const ParallelPlan plan =
      chol.plan_parallel(4, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic);
  (void)chol.simulate(plan);
  const double after = factor_residual_probe(chol.permuted_matrix(), chol.factor());
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace spc
