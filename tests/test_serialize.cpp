// Serialization round-trip tests and condition-number estimation tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/condest.hpp"
#include "factor/residual.hpp"
#include "factor/serialize.hpp"
#include "gen/dense_gen.hpp"
#include "gen/grid_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

TEST(Serialize, RoundTripSolvesIdentically) {
  const SymSparse a = make_fem_mesh({60, 3, 2, 9.0, 321});
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();

  std::stringstream stream;
  save_factorization(stream, chol.ordering(), chol.structure(), chol.factor());
  SavedFactorization loaded = load_factorization(stream);

  Rng rng(2);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> x_orig = chol.solve(b);
  const std::vector<double> x_loaded = loaded.solve(b);
  // Both sides run the same serial panel sweep on bitwise-equal factors.
  ASSERT_EQ(x_orig.size(), x_loaded.size());
  for (std::size_t i = 0; i < x_orig.size(); ++i) {
    EXPECT_EQ(x_orig[i], x_loaded[i]) << "i=" << i;
  }
}

TEST(Serialize, MovePreservesSelfBinding) {
  const SymSparse a = make_grid2d(8, 8);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  std::stringstream stream;
  save_factorization(stream, chol.ordering(), chol.structure(), chol.factor());
  SavedFactorization first = load_factorization(stream);
  SavedFactorization second = std::move(first);
  EXPECT_EQ(second.factor.structure, &second.structure);
  const std::vector<double> x = second.solve(std::vector<double>(64, 1.0));
  EXPECT_EQ(x.size(), 64u);
}

// Loading `bytes` must fail as malformed input, whatever the corruption.
void expect_malformed(const std::string& bytes) {
  std::stringstream in(bytes);
  try {
    load_factorization(in);
    ADD_FAILURE() << "corrupt factor file accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput) << e.what();
  }
}

// The saved bytes of a GRID 12x12 factor, with the byte offsets of its
// first permutation entry and its first block's (rows, cols) header.
struct SavedGrid {
  SparseCholesky chol;
  std::string bytes;
  std::size_t perm_pos = 0;
  std::size_t first_block_pos = 0;
};

SavedGrid saved_grid12() {
  SavedGrid g{SparseCholesky::analyze(make_grid2d(12, 12)), {}, 0, 0};
  g.chol.factorize();
  std::stringstream stream;
  save_factorization(stream, g.chol.ordering(), g.chol.structure(),
                     g.chol.factor());
  g.bytes = stream.str();
  // Magic and version, then each vector as an i64 length and its elements.
  const BlockStructure& bs = g.chol.structure();
  std::size_t pos = 2 * sizeof(std::uint32_t);
  g.perm_pos = pos + sizeof(i64);
  auto skip = [&pos](std::size_t count, std::size_t elem) {
    pos += sizeof(i64) + count * elem;
  };
  skip(g.chol.ordering().size(), sizeof(idx));
  skip(bs.part.first_col.size(), sizeof(idx));
  skip(bs.part.block_of_col.size(), sizeof(idx));
  skip(bs.part.sn_of_block.size(), sizeof(idx));
  skip(bs.rowptr.size(), sizeof(i64));
  skip(bs.rowidx.size(), sizeof(idx));
  skip(bs.blkptr.size(), sizeof(i64));
  skip(bs.blkrow.size(), sizeof(idx));
  skip(bs.blkoff.size(), sizeof(i64));
  skip(bs.blkcnt.size(), sizeof(idx));
  g.first_block_pos = pos;
  return g;
}

template <class T>
void poke(std::string& bytes, std::size_t pos, T value) {
  std::memcpy(bytes.data() + pos, &value, sizeof value);
}

TEST(Serialize, RejectsGarbage) {
  expect_malformed("this is not a factorization");
}

TEST(Serialize, RejectsTruncated) {
  const SymSparse a = make_grid2d(6, 6);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  std::stringstream stream;
  save_factorization(stream, chol.ordering(), chol.structure(), chol.factor());
  const std::string full = stream.str();
  expect_malformed(full.substr(0, full.size() / 2));
}

// A block header that disagrees with the structure's shape for the block
// must fail before the block's data is read (a 1x1 header on a 6x6 block
// would otherwise leave a solve reading 36 doubles from one).
TEST(Serialize, RejectsMismatchedBlockShape) {
  SavedGrid g = saved_grid12();
  ASSERT_GT(g.chol.structure().part.width(0), 1);
  std::string bytes = g.bytes;
  poke<idx>(bytes, g.first_block_pos, 1);
  poke<idx>(bytes, g.first_block_pos + sizeof(idx), 1);
  expect_malformed(bytes);
  bytes = g.bytes;
  poke<idx>(bytes, g.first_block_pos, g.chol.structure().part.width(0) + 1);
  expect_malformed(bytes);
}

// The ordering indexes the right-hand side, so it must be a permutation of
// [0, n): out-of-range and repeated entries are both rejected.
TEST(Serialize, RejectsNonPermutation) {
  SavedGrid g = saved_grid12();
  std::string bytes = g.bytes;
  poke<idx>(bytes, g.perm_pos, 268435456);
  expect_malformed(bytes);
  bytes = g.bytes;
  poke<idx>(bytes, g.perm_pos, -1);
  expect_malformed(bytes);
  bytes = g.bytes;
  poke<idx>(bytes, g.perm_pos, g.chol.ordering()[1]);
  expect_malformed(bytes);
}

// A vector length far beyond the file's size fails as truncation once the
// bytes run out; it never sizes an allocation up front.
TEST(Serialize, RejectsLyingVectorLength) {
  SavedGrid g = saved_grid12();
  std::string bytes = g.bytes;
  poke<i64>(bytes, g.perm_pos - sizeof(i64), i64{1} << 39);
  expect_malformed(bytes);
}

// A structure that claims one 100000 x 100000 diagonal block in an 800 KB
// file is rejected as truncated before its 80 GB arena is allocated.
TEST(Serialize, RejectsArenaLargerThanFile) {
  const idx n = 100000;
  std::stringstream file;
  auto put = [&file](const auto& v) {
    file.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  auto put_vec = [&file, &put](const auto& v) {
    put(static_cast<i64>(v.size()));
    file.write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(v[0])));
  };
  put(std::uint32_t{0x53504346});  // "SPCF"
  put(std::uint32_t{1});
  std::vector<idx> perm(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  put_vec(perm);                                              // perm
  put_vec(std::vector<idx>{0, n});                            // first_col
  put_vec(std::vector<idx>(static_cast<std::size_t>(n), 0));  // block_of_col
  put_vec(std::vector<idx>{0});                               // sn_of_block
  put_vec(std::vector<i64>{0, 0});                            // rowptr
  put_vec(std::vector<idx>{});                                // rowidx
  put_vec(std::vector<i64>{0, 0});                            // blkptr
  put_vec(std::vector<idx>{});                                // blkrow
  put_vec(std::vector<i64>{});                                // blkoff
  put_vec(std::vector<idx>{});                                // blkcnt
  put(n);
  put(n);
  expect_malformed(file.str());
}

// Every single-byte corruption of the header, the structure and the block
// headers either loads a factor that solves without fault or is rejected as
// malformed input (run under ASan, this checks the loader's bounds).
TEST(Serialize, SingleByteCorruptionLoadsOrIsRejected) {
  const SparseCholesky chol = [] {
    SparseCholesky c = SparseCholesky::analyze(make_grid2d(4, 4));
    c.factorize();
    return c;
  }();
  std::stringstream stream;
  save_factorization(stream, chol.ordering(), chol.structure(), chol.factor());
  const std::string full = stream.str();
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    std::string bytes = full;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5a);
    std::stringstream in(bytes);
    try {
      const SavedFactorization loaded = load_factorization(in);
      const std::vector<double> x = loaded.solve(std::vector<double>(
          static_cast<std::size_t>(loaded.structure.part.num_cols()), 1.0));
      EXPECT_EQ(x.size(), 16u) << "byte " << pos;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput) << "byte " << pos << ": " << e.what();
    }
  }
}

TEST(Serialize, FileRoundTrip) {
  const SymSparse a = make_grid2d(7, 5);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const std::string path = "/tmp/spc_test_factor.bin";
  save_factorization_file(path, chol.ordering(), chol.structure(), chol.factor());
  const SavedFactorization loaded = load_factorization_file(path);
  EXPECT_EQ(loaded.structure.num_block_cols(), chol.structure().num_block_cols());
}

TEST(CondEst, IdentityHasConditionOne) {
  // A = diag(4): lambda_max = 4, ||A^{-1}|| = 1/4, cond = 1.
  std::vector<double> diag(20, 4.0);
  const SymSparse a = SymSparse::from_entries(20, diag, {}, {});
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  EXPECT_NEAR(estimate_norm2(chol.permuted_matrix()), 4.0, 1e-6);
  EXPECT_NEAR(estimate_inv_norm2(chol.permuted_matrix(), chol.factor()), 0.25, 1e-6);
  EXPECT_NEAR(estimate_condition(chol.permuted_matrix(), chol.factor()), 1.0, 1e-5);
}

TEST(CondEst, DiagonalMatrixExactExtremes) {
  // diag(1, 2, ..., 10): cond = 10.
  std::vector<double> diag(10);
  for (int i = 0; i < 10; ++i) diag[i] = i + 1.0;
  const SymSparse a = SymSparse::from_entries(10, diag, {}, {});
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  EXPECT_NEAR(estimate_condition(chol.permuted_matrix(), chol.factor(), {}, nullptr, 200), 10.0,
              0.2);
}

TEST(CondEst, GridLaplacianReasonableRange) {
  const SymSparse a = make_grid2d(12, 12);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const double cond = estimate_condition(chol.permuted_matrix(), chol.factor(), {}, nullptr,
                                         60);
  // diag = degree+1 Laplacian: eigenvalues in (1, ~9); condition modest.
  EXPECT_GT(cond, 1.0);
  EXPECT_LT(cond, 50.0);
}

TEST(CondEst, RejectsBadIters) {
  const SymSparse a = make_grid2d(4, 4);
  EXPECT_THROW(estimate_norm2(a, 0), Error);
}

// --- Fingerprints (the factor registry's cache key, docs/SERVING.md) -------

namespace {
// A tiny fixed matrix built entry-by-entry so the sensitivity tests can
// perturb exactly one number at a time.
SymSparse tiny_matrix(double d0, double off01) {
  const std::vector<double> diag = {d0, 5.0, 6.0, 7.0};
  const std::vector<std::pair<idx, idx>> pos = {{1, 0}, {2, 1}, {3, 0}};
  const std::vector<double> val = {off01, -1.0, -0.5};
  return SymSparse::from_entries(4, diag, pos, val);
}
}  // namespace

TEST(Fingerprint, StableAcrossRunsAndPinned) {
  const SymSparse a = make_grid2d(5, 4);
  const Fingerprint f1 = fingerprint_matrix(a);
  const Fingerprint f2 = fingerprint_matrix(a);
  EXPECT_EQ(f1, f2);
  ASSERT_EQ(f1.to_hex().size(), 32u);
  // Pinned literal: the fingerprint is the daemon's cache key, and clients
  // may hold keys across daemon restarts, so the hash is a wire contract.
  // If this pin moves, the change invalidates every client-held key — bump
  // kVersion in server/protocol.hpp and update the pin deliberately.
  EXPECT_EQ(f1.to_hex(), "5b664edbc3aec44a1b285505b7abc324");
}

TEST(Fingerprint, OneValueChangesKey) {
  const Fingerprint base = fingerprint_matrix(tiny_matrix(4.0, -1.0));
  EXPECT_NE(base, fingerprint_matrix(tiny_matrix(4.0 + 1e-15, -1.0)));
  EXPECT_NE(base, fingerprint_matrix(tiny_matrix(4.0, -1.0 + 1e-15)));
  // Bit-pattern hashing: +0.0 and -0.0 compare equal as doubles but are
  // different matrices for caching purposes.
  EXPECT_NE(fingerprint_matrix(tiny_matrix(4.0, 0.0)),
            fingerprint_matrix(tiny_matrix(4.0, -0.0)));
}

TEST(Fingerprint, StructureChangesKey) {
  const SymSparse a = tiny_matrix(4.0, -1.0);
  // Same values, one extra structural zero entry: different sparsity
  // pattern, different key.
  const SymSparse b = SymSparse::from_entries(
      4, {4.0, 5.0, 6.0, 7.0}, {{1, 0}, {2, 1}, {3, 0}, {3, 2}},
      {-1.0, -1.0, -0.5, 0.0});
  EXPECT_NE(fingerprint_matrix(a), fingerprint_matrix(b));
  // Same entries on a larger dimension: different key.
  const SymSparse c = SymSparse::from_entries(
      5, {4.0, 5.0, 6.0, 7.0, 1.0}, {{1, 0}, {2, 1}, {3, 0}},
      {-1.0, -1.0, -0.5});
  EXPECT_NE(fingerprint_matrix(a), fingerprint_matrix(c));
}

TEST(Fingerprint, OptionsExtendTheMatrixKey) {
  const SymSparse a = tiny_matrix(4.0, -1.0);
  SolverOptions opt;
  const Fingerprint base = fingerprint_problem(a, opt);
  // The problem key is the matrix key continued with the options, so the
  // two never collide for the same matrix.
  EXPECT_NE(base, fingerprint_matrix(a));
  // Every analyze/factorize-relevant knob moves the key...
  SolverOptions o1 = opt;
  o1.block_size = opt.block_size + 1;
  EXPECT_NE(base, fingerprint_problem(a, o1));
  SolverOptions o2 = opt;
  o2.ordering = SolverOptions::Ordering::kNatural;
  EXPECT_NE(base, fingerprint_problem(a, o2));
  SolverOptions o3 = opt;
  o3.pivot_policy = PivotPolicy::kPerturb;
  EXPECT_NE(base, fingerprint_problem(a, o3));
  SolverOptions o4 = opt;
  o4.precision = SolverOptions::Precision::kFp32Refine;
  EXPECT_NE(base, fingerprint_problem(a, o4));
}

TEST(Fingerprint, GovernanceKnobsDoNotChangeKey) {
  // Budget/deadline/retry shape a request, not the cached factorization:
  // two clients with different deadlines must share one registry entry.
  const SymSparse a = tiny_matrix(4.0, -1.0);
  SolverOptions opt;
  const Fingerprint base = fingerprint_problem(a, opt);
  SolverOptions governed = opt;
  governed.mem_budget_bytes = 123456789;
  governed.deadline_s = 0.25;
  EXPECT_EQ(base, fingerprint_problem(a, governed));
}

TEST(Fingerprint, HasherWordBoundariesMatter) {
  // ["ab","c"] vs ["a","bc"]: same bytes, different word boundaries.
  FingerprintHasher h1;
  h1.mix_bytes("ab", 2);
  h1.mix_bytes("c", 1);
  FingerprintHasher h2;
  h2.mix_bytes("a", 1);
  h2.mix_bytes("bc", 2);
  EXPECT_NE(h1.digest(), h2.digest());
}

}  // namespace
}  // namespace spc
