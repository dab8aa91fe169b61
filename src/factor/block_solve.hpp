// Serial triangular solves with the block factor: L y = b and L^T x = y.
// The panel sweeps below are the serial path of block_solve_panel
// (factor/parallel_solve.hpp), which every production solve goes through.
// The scalar per-column sweeps (block_lower_solve, block_lower_transpose_solve,
// block_solve) are kept only as the tests' reference implementation.
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

// Panel sweeps (docs/SOLVE.md): in-place forward / backward solve of an
// n x nrhs RHS panel stored column-major at `x` with leading dimension ldx.
// The factor is traversed ONCE for the whole panel, and each block op runs
// through the level-3 solve kernels (trsm_left_* / gemm_nn/tn) instead of
// the scalar substitution above. `scratch` holds one off-diagonal entry's
// GEMM result (forward) or gathered RHS rows (backward); pass a persistent
// matrix to make repeated solves allocation-free.
void block_lower_solve_panel(const BlockFactor& f, double* x, idx ldx,
                             idx nrhs, DenseMatrix& scratch);
void block_lower_transpose_solve_panel(const BlockFactor& f, double* x,
                                       idx ldx, idx nrhs, DenseMatrix& scratch);

// Multiple right-hand sides solved in place. B is n x nrhs, column-major,
// processed in panels of `nrhs_block` columns through the panel sweeps (so
// the factor is walked once per panel, not once per RHS column).
void block_solve_multi(const BlockFactor& f, DenseMatrix& b,
                       idx nrhs_block = 32);

}  // namespace spc
