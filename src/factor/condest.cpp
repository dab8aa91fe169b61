#include "factor/condest.hpp"

#include <cmath>
#include <memory>

#include "factor/parallel_solve.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

double normalize(std::vector<double>& v) {
  double norm = 0.0;
  for (double x : v) norm += x * x;
  norm = std::sqrt(norm);
  SPC_CHECK(norm > 0.0, "condest: zero vector in power iteration");
  for (double& x : v) x /= norm;
  return norm;
}

std::vector<double> random_unit(idx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  normalize(v);
  return v;
}

}  // namespace

double estimate_norm2(const SymSparse& a, int iters, std::uint64_t seed) {
  SPC_CHECK(iters >= 1, "estimate_norm2: iters must be >= 1");
  std::vector<double> v = random_unit(a.num_rows(), seed);
  double lambda = 0.0;
  for (int it = 0; it < iters; ++it) {
    v = a.multiply(v);
    lambda = normalize(v);
  }
  return lambda;
}

double estimate_inv_norm2(const SymSparse& a, const BlockFactor& f,
                          const SolveOptions& opt, SolveWorkspace* ws, int iters,
                          std::uint64_t seed) {
  SPC_CHECK(iters >= 1, "estimate_inv_norm2: iters must be >= 1");
  SPC_CHECK(a.num_rows() == f.structure->part.num_cols(),
            "estimate_inv_norm2: matrix/factor mismatch");
  std::unique_ptr<SolveWorkspace> local;
  if (ws == nullptr) {
    local = std::make_unique<SolveWorkspace>(*f.structure);
    ws = local.get();
  }
  std::vector<double> v = random_unit(a.num_rows(), seed);
  double lambda = 0.0;
  for (int it = 0; it < iters; ++it) {
    block_solve_panel(f, v.data(), 1, opt, ws);
    lambda = normalize(v);
  }
  return lambda;
}

double estimate_condition(const SymSparse& a, const BlockFactor& f,
                          const SolveOptions& opt, SolveWorkspace* ws,
                          int iters) {
  return estimate_norm2(a, iters) * estimate_inv_norm2(a, f, opt, ws, iters);
}

}  // namespace spc
