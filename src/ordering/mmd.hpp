// Multiple Minimum Degree ordering (Liu 1985), the fill-reducing ordering the
// paper applies to its irregular (Harwell-Boeing) matrices.
//
// Implementation: quotient-graph exact-external-degree minimum degree with
//   * multiple elimination  — all independent minimum-degree supervariables
//     are eliminated in one step before degrees are recomputed;
//   * mass elimination      — variables whose adjacency collapses to the new
//     element are ordered immediately after the pivot;
//   * element absorption    — elements reachable from the pivot are merged
//     into the newly formed element;
//   * supervariable merging — indistinguishable variables are detected by
//     hashing after each step and merged;
//   * element-anchored degree update (Liu's GENMMD update) — every variable
//     a step touches lies in the new element Lp of the pivot it is anchored
//     on. Lp is marked and weighed once per new element, and each older
//     element's external part Le \ Lp is gathered once per new element, so
//     an exact degree costs the variable's own adjacency plus those external
//     parts, never a rescan of Lp. Degrees, tie-breaking and the ordering
//     equal those of a full per-variable rescan.
//
// Invariant: a variable's list of adjacent variables starts as its sorted,
// duplicate-free Graph row and is only ever filtered in order, so it stays
// sorted and duplicate-free without re-sorting (merge detection compares
// these lists elementwise).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace spc {

struct MmdOptions {
  // Eliminate all pivots with degree <= min_degree + delta per step
  // (delta = 0 is Liu's standard multiple elimination).
  idx delta = 0;
  // Use the Amestoy-Davis-Duff approximate external degree instead of the
  // exact one: cheaper updates (each element's external contribution is a
  // one-pass bound rather than a dedup scan) at slightly lower ordering
  // quality. With this flag the algorithm is AMD, single elimination.
  bool approximate_degree = false;
};

// Returns the elimination order: perm[k] = vertex eliminated k-th (new->old).
std::vector<idx> mmd_order(const Graph& g, const MmdOptions& opt = {});

// Approximate minimum degree: mmd_order with approximate_degree = true.
std::vector<idx> amd_order(const Graph& g);

}  // namespace spc
