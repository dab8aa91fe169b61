// Numeric factorization and solve tests, including parameterized sweeps over
// matrix families, block sizes, and amalgamation settings (property-style:
// ||A - LL^T|| small and A x = b solved accurately for every configuration).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/block_solve.hpp"
#include "factor/numeric_factor.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "factor/residual.hpp"
#include "factor/serialize.hpp"
#include "factor_test_util.hpp"
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

// 64-bit FNV-1a, continued from `h`, over n doubles, each value as its 8
// little-endian bytes.
std::uint64_t fnv1a(std::uint64_t h, const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t u = 0;
    std::memcpy(&u, p + i, sizeof u);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

// FNV-1a over a byte string (a saved factorization file).
std::uint64_t fnv1a_bytes(const std::string& bytes) {
  std::uint64_t h = kFnvBasis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// FNV-1a over a factor's block contents: every diagonal block, then every
// off-diagonal block. This is the arena minus its alignment padding (which
// an fp64 arena leaves uninitialized).
std::uint64_t factor_hash(const BlockFactor& f) {
  std::uint64_t h = kFnvBasis;
  test_support::for_each_block(
      f, [&h](block_id, const double* data, idx rows, idx cols) {
        h = fnv1a(h, data,
                  static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
      });
  return h;
}

// The matrices every golden pin below is recorded on.
struct GoldenCase {
  const char* name;
  SymSparse a;
  PivotPolicy policy;
};

std::vector<GoldenCase> golden_cases() {
  LpGenOptions lp;
  lp.n = 700;
  lp.seed = 5;
  std::vector<GoldenCase> cases;
  cases.push_back({"CUBE30", make_bench_matrix("CUBE30", SuiteScale::kSmall).matrix,
                   PivotPolicy::kStrict});
  cases.push_back({"mesh", make_fem_mesh({80, 3, 3, 9.0, 77}), PivotPolicy::kStrict});
  cases.push_back({"LP700", make_lp_normal_equations(lp), PivotPolicy::kStrict});
  cases.push_back({"indefinite mesh",
                   make_fem_mesh({.nodes = 60, .dof = 2, .dim = 3,
                                  .avg_node_degree = 8.0, .seed = 13,
                                  .spdize = false}),
                   PivotPolicy::kPerturb});
  return cases;
}

// The serial fp64 factor of a golden case.
BlockFactor golden_factor(const SparseCholesky& chol, PivotPolicy policy) {
  FactorizeOptions fopt;
  fopt.pivot_policy = policy;
  return block_factorize(chol.permuted_matrix(), chol.structure(),
                         chol.task_graph(), fopt);
}

// Pins the scalar kernel table for the lifetime of a golden test: its
// packed micro-kernel rounds every FMA exactly and its strided kernels are
// compiled for the baseline ISA (no contraction), so the bits do not depend
// on the host's vector extensions.
class ScalarKernels {
 public:
  ScalarKernels() : saved_(kernel_isa()) {
    EXPECT_TRUE(set_kernel_isa(KernelIsa::kScalar));
  }
  ~ScalarKernels() { set_kernel_isa(saved_); }

 private:
  KernelIsa saved_;
};

// Bitwise pins of the serial fp64 sweep, the serial fp32 sweep and the
// one-thread work-stealing executor, recorded while fp32 still had its own
// hand-copied engine and kernels; the scalar-generic code path reproduces
// them bit for bit. The one-thread fp32 executor, which did not exist then,
// is pinned as first recorded. (The executor is not bitwise equal to the
// serial sweep at one thread: it sums a batch of updates into a destination
// in scratch before adding it, so the two agree only within rounding.)
TEST(FactorGolden, ArenaHashesMatchRecorded) {
  struct Pins {
    std::uint64_t fp64, fp32, parallel1, parallel1_fp32;
  };
  const Pins pins[] = {
      {0x3b832ac18736e803ULL, 0xfe1fdddae4222295ULL, 0x7104b72d388d9460ULL,
       0xcce4ff9a133c1721ULL},  // CUBE30
      {0x8360a7d4a7035988ULL, 0x4e6d8a9f6e1403cbULL, 0x25934512279c1371ULL,
       0xf9229805e2870641ULL},  // mesh
      {0xb3b59a9f57674b93ULL, 0xb499d25ce2914733ULL, 0x7f1af3c654f233bbULL,
       0x3f27d437b2a1fbe9ULL},  // LP700
      {0x9b73a3add48b0513ULL, 0xf6135fda30c86339ULL, 0x9b73a3add48b0513ULL,
       0xf6135fda30c86339ULL},  // indefinite mesh
  };
  const ScalarKernels scalar;
  const std::vector<GoldenCase> cases = golden_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const Pins& p = pins[i];
    const SparseCholesky chol = SparseCholesky::analyze(c.a);
    const SymSparse& ap = chol.permuted_matrix();
    FactorizeOptions fopt;
    fopt.pivot_policy = c.policy;
    ParallelFactorOptions popt;
    popt.num_threads = 1;
    popt.pivot_policy = c.policy;
    const std::uint64_t fp64 = factor_hash(golden_factor(chol, c.policy));
    const std::uint64_t fp32 = factor_hash(
        block_factorize<float>(ap, chol.structure(), chol.task_graph(), fopt));
    const std::uint64_t par1 = factor_hash(
        block_factorize_parallel(ap, chol.structure(), chol.task_graph(), popt));
    EXPECT_EQ(fp64, p.fp64) << c.name << " fp64 0x" << std::hex << fp64;
    EXPECT_EQ(fp32, p.fp32) << c.name << " fp32 0x" << std::hex << fp32;
    const std::uint64_t par1_fp32 = factor_hash(block_factorize_parallel<float>(
        ap, chol.structure(), chol.task_graph(), popt));
    EXPECT_EQ(par1, p.parallel1) << c.name << " parallel1 0x" << std::hex << par1;
    EXPECT_EQ(par1_fp32, p.parallel1_fp32)
        << c.name << " parallel1 fp32 0x" << std::hex << par1_fp32;
  }
}

// The one-thread panel solve (the serial sweep every production solve runs
// at threads = 1) on the serial fp64 factors above, pinned bit for bit at
// one and five right-hand sides. The RHS entries are small integers, so the
// input is exact on every host.
TEST(FactorGolden, PanelSolveHashesMatchRecorded) {
  const std::uint64_t pins[][2] = {
      {0x6ead83adbe45e44aULL, 0x18be83051b9f2157ULL},  // CUBE30
      {0x9dbfe1d742a2b5b3ULL, 0x8f9d1eae85079fedULL},  // mesh
      {0x7e27f5e4ce7ad8f8ULL, 0x1226c02976898a29ULL},  // LP700
      {0x0d520a2be021d8c3ULL, 0xb919ae92a595b1c3ULL},  // indefinite mesh
  };
  const ScalarKernels scalar;
  const std::vector<GoldenCase> cases = golden_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const SparseCholesky chol = SparseCholesky::analyze(c.a);
    const BlockFactor f = golden_factor(chol, c.policy);
    const idx n = chol.permuted_matrix().num_rows();
    const idx widths[] = {1, 5};
    for (int k = 0; k < 2; ++k) {
      const idx nrhs = widths[k];
      std::vector<double> x;
      for (idx col = 0; col < nrhs; ++col) {
        for (idx r = 0; r < n; ++r) x.push_back((r * 7 + col * 13) % 17 - 8);
      }
      SolveOptions so;
      so.threads = 1;
      block_solve_panel(f, x.data(), nrhs, so);
      const std::uint64_t h = fnv1a(kFnvBasis, x.data(), x.size());
      EXPECT_EQ(h, pins[i][k])
          << c.name << " nrhs=" << nrhs << " 0x" << std::hex << h;
    }
  }
}

// The bytes save_factorization writes (file format version 1), and the
// factor load_factorization rebuilds from them: bit for bit the saved one.
TEST(FactorGolden, SavedFactorBytesMatchRecorded) {
  const std::uint64_t file_pins[] = {0xe255795483dc19a9ULL,   // CUBE30
                                     0x66b5ce425b0b4d72ULL};  // mesh
  const ScalarKernels scalar;
  const std::vector<GoldenCase> cases = golden_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const SparseCholesky chol = SparseCholesky::analyze(c.a);
    const BlockFactor f = golden_factor(chol, c.policy);
    std::stringstream stream;
    save_factorization(stream, chol.ordering(), chol.structure(), f);
    const std::string bytes = stream.str();
    if (i < 2) {
      const std::uint64_t h = fnv1a_bytes(bytes);
      EXPECT_EQ(h, file_pins[i]) << c.name << " file 0x" << std::hex << h;
    }
    const SavedFactorization loaded = load_factorization(stream);
    EXPECT_EQ(factor_hash(loaded.factor), factor_hash(f)) << c.name;
  }
}

}  // namespace
}  // namespace spc
