// Scalar triangular solves with the block factor: L y = b and L^T x = y,
// one right-hand side, per-column substitution. Every production solve goes
// through the panel sweeps of block_solve_panel (factor/parallel_solve.hpp);
// these are kept as the tests' reference implementation.
#pragma once

#include <vector>

#include "factor/numeric_factor.hpp"
#include "support/types.hpp"

namespace spc {

// In-place forward solve: x := L^{-1} x.
void block_lower_solve(const BlockFactor& f, std::vector<double>& x);

// In-place backward solve: x := L^{-T} x.
void block_lower_transpose_solve(const BlockFactor& f, std::vector<double>& x);

// Full solve A x = b given A = L L^T (scalar reference).
std::vector<double> block_solve(const BlockFactor& f, const std::vector<double>& b);

}  // namespace spc
