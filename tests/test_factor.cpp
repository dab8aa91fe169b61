// Numeric factorization and solve tests, including parameterized sweeps over
// matrix families, block sizes, and amalgamation settings (property-style:
// ||A - LL^T|| small and A x = b solved accurately for every configuration).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/block_solve.hpp"
#include "factor/numeric_factor.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/residual.hpp"
#include "gen/benchmark_suite.hpp"
#include "gen/dense_gen.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

std::vector<double> random_vector(idx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(NumericFactor, DenseMatchesDenseCholesky) {
  const SymSparse a = make_dense_spd(40);
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  opt.block_size = 12;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_LT(factor_residual_dense(chol.permuted_matrix(), chol.factor()), 1e-12);
}

TEST(NumericFactor, SmallGridExactResidual) {
  const SymSparse a = make_grid2d(7, 8);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  EXPECT_LT(factor_residual_dense(chol.permuted_matrix(), chol.factor()), 1e-12);
}

TEST(NumericFactor, FactorEntryAccessor) {
  const SymSparse a = make_grid2d(5, 5);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const BlockFactor& f = chol.factor();
  // Diagonal entries of L are positive; upper queries rejected.
  for (idx i = 0; i < a.num_rows(); ++i) EXPECT_GT(f.entry(i, i), 0.0);
  EXPECT_THROW(f.entry(0, 1), Error);
}

TEST(NumericFactor, ThrowsOnIndefinite) {
  // -I is symmetric but not positive definite... our SymSparse validate
  // requires positive diagonal, so build an indefinite one with positive
  // diagonal: [[1, 3], [3, 1]].
  const SymSparse a = SymSparse::from_entries(2, {1.0, 1.0}, {{1, 0}}, {3.0});
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  EXPECT_THROW(chol.factorize(), Error);
}

TEST(BlockSolve, ForwardBackwardAgainstMultiply) {
  const SymSparse a = make_grid2d(9, 6);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const std::vector<double> x_true = random_vector(a.num_rows(), 17);
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = chol.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(BlockSolve, SolveBeforeFactorizeThrows) {
  const SymSparse a = make_grid2d(4, 4);
  SparseCholesky chol = SparseCholesky::analyze(a);
  EXPECT_THROW(chol.solve(std::vector<double>(16, 1.0)), Error);
}

TEST(BlockSolve, RhsSizeMismatchThrows) {
  const SymSparse a = make_grid2d(4, 4);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  EXPECT_THROW(chol.solve(std::vector<double>(7, 1.0)), Error);
}

TEST(SolveSpd, OneShotHelper) {
  const SymSparse a = make_grid3d(4, 4, 4);
  const std::vector<double> x_true = random_vector(a.num_rows(), 23);
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = solve_spd(a, b);
  EXPECT_LT(solve_residual(a, x, b), 1e-10);
}

// ---------------------------------------------------------------------------
// Parameterized sweep: family x block size x amalgamation.

enum class Family { kGrid2d, kGrid3d, kDense, kFem, kLp };

std::string family_name(Family f) {
  switch (f) {
    case Family::kGrid2d: return "grid2d";
    case Family::kGrid3d: return "grid3d";
    case Family::kDense: return "dense";
    case Family::kFem: return "fem";
    case Family::kLp: return "lp";
  }
  return "?";
}

SymSparse make_family(Family f) {
  switch (f) {
    case Family::kGrid2d: return make_grid2d(13, 11);
    case Family::kGrid3d: return make_grid3d(5, 4, 6);
    case Family::kDense: return make_dense_spd(70);
    case Family::kFem: return make_fem_mesh({60, 3, 3, 9.0, 11});
    case Family::kLp: {
      LpGenOptions o;
      o.n = 150;
      o.mean_overlap = 12.0;
      return make_lp_normal_equations(o);
    }
  }
  SPC_CHECK(false, "unknown family");
}

class FactorSweep
    : public ::testing::TestWithParam<std::tuple<Family, idx, bool>> {};

TEST_P(FactorSweep, ResidualSmallAndSolveAccurate) {
  const auto [family, block_size, amalg] = GetParam();
  const SymSparse a = make_family(family);
  SolverOptions opt;
  opt.block_size = block_size;
  opt.amalgamate = amalg;
  opt.ordering = family == Family::kDense ? SolverOptions::Ordering::kNatural
                                          : SolverOptions::Ordering::kMmd;
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), chol.factor()), 1e-10);
  const std::vector<double> x_true = random_vector(a.num_rows(), 31);
  const std::vector<double> b = a.multiply(x_true);
  EXPECT_LT(solve_residual(a, chol.solve(b), b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FactorSweep,
    ::testing::Combine(::testing::Values(Family::kGrid2d, Family::kGrid3d,
                                         Family::kDense, Family::kFem, Family::kLp),
                       ::testing::Values<idx>(1, 4, 16, 48),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Family, idx, bool>>& info) {
      return family_name(std::get<0>(info.param)) + "_B" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_amalg" : "_raw");
    });

// Small-scale benchmark-suite matrices must all factor accurately.
class SuiteFactor : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteFactor, FactorsAndSolves) {
  const BenchMatrix bm = make_bench_matrix(GetParam(), SuiteScale::kSmall);
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNatural;
  SparseCholesky chol =
      SparseCholesky::analyze_ordered(bm.matrix, order_bench_matrix(bm), opt);
  chol.factorize();
  const std::vector<double> x_true = random_vector(bm.matrix.num_rows(), 41);
  const std::vector<double> b = bm.matrix.multiply(x_true);
  EXPECT_LT(solve_residual(bm.matrix, chol.solve(b), b), 1e-9) << bm.name;
}

INSTANTIATE_TEST_SUITE_P(Table1, SuiteFactor,
                         ::testing::Values("DENSE1024", "DENSE2048", "GRID150",
                                           "GRID300", "CUBE30", "CUBE35",
                                           "BCSSTK15", "BCSSTK29", "BCSSTK31",
                                           "BCSSTK33", "CUBE40", "DENSE4096",
                                           "COPTER2", "10FLEET"));


// --- Golden factor hashes -----------------------------------------------------

// 64-bit FNV-1a over a factor's block contents: every diagonal block, then
// every off-diagonal block, each value as its 8 little-endian bytes. This is
// the arena minus its alignment padding (which an fp64 arena leaves
// uninitialized).
std::uint64_t factor_hash(const BlockFactor& f) {
  std::uint64_t h = 1469598103934665603ULL;
  auto add = [&h](const DenseMatrix& m) {
    const std::size_t n =
        static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols());
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t u = 0;
      std::memcpy(&u, m.data() + i, sizeof u);
      for (int b = 0; b < 8; ++b) {
        h ^= (u >> (8 * b)) & 0xffU;
        h *= 1099511628211ULL;
      }
    }
  };
  for (const DenseMatrix& d : f.diag) add(d);
  for (const DenseMatrix& e : f.offdiag) add(e);
  return h;
}

// Bitwise pins of the serial fp64 sweep, the serial fp32 sweep and the
// one-thread work-stealing executor, recorded while fp32 still had its own
// hand-copied engine and kernels; the scalar-generic code path reproduces
// them bit for bit. The one-thread fp32 executor, which did not exist then,
// is pinned as first recorded. (The executor is not bitwise equal to the
// serial sweep at one thread: it sums a batch of updates into a destination
// in scratch before adding it, so the two agree only within rounding.)
// Pinned on the scalar kernel table: its packed
// micro-kernel rounds every FMA exactly and its strided kernels are compiled
// for the baseline ISA (no contraction), so the bits do not depend on the
// host's vector extensions.
TEST(FactorGolden, ArenaHashesMatchRecorded) {
  struct Case {
    const char* name;
    SymSparse a;
    PivotPolicy policy;
    std::uint64_t fp64, fp32, parallel1, parallel1_fp32;
  };
  LpGenOptions lp;
  lp.n = 700;
  lp.seed = 5;
  Case cases[] = {
      {"CUBE30", make_bench_matrix("CUBE30", SuiteScale::kSmall).matrix,
       PivotPolicy::kStrict, 0x3b832ac18736e803ULL, 0xfe1fdddae4222295ULL,
       0x7104b72d388d9460ULL, 0xcce4ff9a133c1721ULL},
      {"mesh", make_fem_mesh({80, 3, 3, 9.0, 77}), PivotPolicy::kStrict,
       0x8360a7d4a7035988ULL, 0x4e6d8a9f6e1403cbULL, 0x25934512279c1371ULL,
       0xf9229805e2870641ULL},
      {"LP700", make_lp_normal_equations(lp), PivotPolicy::kStrict,
       0xb3b59a9f57674b93ULL, 0xb499d25ce2914733ULL, 0x7f1af3c654f233bbULL,
       0x3f27d437b2a1fbe9ULL},
      {"indefinite mesh",
       make_fem_mesh({.nodes = 60, .dof = 2, .dim = 3, .avg_node_degree = 8.0,
                      .seed = 13, .spdize = false}),
       PivotPolicy::kPerturb, 0x9b73a3add48b0513ULL, 0xf6135fda30c86339ULL,
       0x9b73a3add48b0513ULL, 0xf6135fda30c86339ULL},
  };
  const KernelIsa saved = kernel_isa();
  ASSERT_TRUE(set_kernel_isa(KernelIsa::kScalar));
  for (const Case& c : cases) {
    const SparseCholesky chol = SparseCholesky::analyze(c.a);
    const SymSparse& ap = chol.permuted_matrix();
    FactorizeOptions fopt;
    fopt.pivot_policy = c.policy;
    ParallelFactorOptions popt;
    popt.num_threads = 1;
    popt.pivot_policy = c.policy;
    const std::uint64_t fp64 = factor_hash(
        block_factorize(ap, chol.structure(), chol.task_graph(), fopt));
    const std::uint64_t fp32 = factor_hash(
        block_factorize<float>(ap, chol.structure(), chol.task_graph(), fopt));
    const std::uint64_t par1 = factor_hash(
        block_factorize_parallel(ap, chol.structure(), chol.task_graph(), popt));
    EXPECT_EQ(fp64, c.fp64) << c.name << " fp64 0x" << std::hex << fp64;
    EXPECT_EQ(fp32, c.fp32) << c.name << " fp32 0x" << std::hex << fp32;
    const std::uint64_t par1_fp32 = factor_hash(block_factorize_parallel<float>(
        ap, chol.structure(), chol.task_graph(), popt));
    EXPECT_EQ(par1, c.parallel1) << c.name << " parallel1 0x" << std::hex << par1;
    EXPECT_EQ(par1_fp32, c.parallel1_fp32)
        << c.name << " parallel1 fp32 0x" << std::hex << par1_fp32;
  }
  set_kernel_isa(saved);
}

}  // namespace
}  // namespace spc
