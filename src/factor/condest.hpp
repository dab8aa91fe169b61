// Condition number estimation for SPD systems, via power iteration on A
// (largest eigenvalue) and on A^{-1} through repeated factor solves
// (smallest eigenvalue). Gives the user a cheap accuracy forecast for the
// solve: expect roughly cond2 * machine-epsilon relative error.
#pragma once

#include <cstdint>

#include "factor/numeric_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "graph/graph.hpp"
#include "support/types.hpp"

namespace spc {

// Estimate of ||A||_2 = lambda_max(A) by power iteration.
double estimate_norm2(const SymSparse& a, int iters = 30, std::uint64_t seed = 7);

// Estimate of ||A^{-1}||_2 = 1/lambda_min(A) by power iteration on A^{-1},
// using the factor (which must be of `a` itself, i.e. the PERMUTED matrix).
// The per-iteration solves run in place through block_solve_panel
// (factor/parallel_solve.hpp) on `ws`, or on one local workspace when `ws`
// is null, so the power iteration allocates nothing at steady state.
double estimate_inv_norm2(const SymSparse& a, const BlockFactor& f,
                          const SolveOptions& opt = {},
                          SolveWorkspace* ws = nullptr, int iters = 30,
                          std::uint64_t seed = 7);

// 2-norm condition number estimate of the (permuted) matrix.
double estimate_condition(const SymSparse& a, const BlockFactor& f,
                          const SolveOptions& opt = {},
                          SolveWorkspace* ws = nullptr, int iters = 30);

}  // namespace spc
