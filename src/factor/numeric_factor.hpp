// Numeric block Cholesky factorization over the BlockStructure, using the
// BFAC/BDIV/BMOD primitives of §2.1, each written once over the element type
// (double, or float for the mixed-precision path). The execution order here
// is sequential right-looking (the same factor as any legal data-driven
// order, up to floating-point summation order); parallel *timing* is the job
// of the simulator, which shares this task structure.
//
// Storage: the diagonal block of column J is a width x width lower triangle
// (stored dense); each off-diagonal block entry holds only its dense rows
// (row-compressed), matching §2.2's supernodal block regularity.
#pragma once

#include <memory>
#include <vector>

#include "blocks/block_structure.hpp"
#include "blocks/task_graph.hpp"
#include "graph/graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/governor.hpp"
#include "support/sync.hpp"
#include "support/types.hpp"

namespace spc {

// Per-run pivot handling for the factorization engines. Under kStrict a
// failed pivot raises Error(kNotPositiveDefinite) carrying the failing
// global column; under kPerturb, pivots d <= pivot_delta * max|diag(A)| are
// boosted to that threshold and counted (see docs/ROBUSTNESS.md). The
// serial right-looking and work-stealing engines, in either precision,
// implement identical semantics: the same matrix yields the same breakdown
// column or the same set of perturbed columns from each. (The distributed
// executor, a protocol validator, takes no options and is strict.)
struct FactorizeOptions {
  PivotPolicy pivot_policy = PivotPolicy::kStrict;
  double pivot_delta = kDefaultPivotDelta;
  // Resource governance (docs/ROBUSTNESS.md §7). When set, every large
  // allocation (arena, scratch) is charged against `budget` before it
  // happens, and the serial engines poll `deadline` at block-column
  // boundaries. Both default off; a null budget/deadline costs nothing.
  std::shared_ptr<governor::MemoryBudget> budget = nullptr;
  const governor::Deadline* deadline = nullptr;
};

// Outcome report for one factorization run.
struct FactorizeInfo {
  i64 perturbed_pivots = 0;         // number of boosted pivots (kPerturb)
  std::vector<idx> perturbed_cols;  // their global (permuted) columns, ascending
  idx breakdown_col = kNone;        // first failing column (kStrict failure);
                                    // also carried by the thrown Error
  bool fp32 = false;           // factor numerics were computed in fp32 (any
                               // engine run with T = float); solves refine
  bool fp32_fallback = false;  // fp32 pass broke down under kStrict and the
                               // caller automatically re-factored in fp64
  // Degradation rungs taken by the facade's governed retry loop
  // (SparseCholesky::factorize_governed), in the order walked. Empty for a
  // first-attempt success. fp32_fallback above is the plain-factorize
  // special case of the kFp32ToFp64 rung and is still set alongside it.
  std::vector<governor::DegradeRung> degrade_path;
  void reset() {
    perturbed_pivots = 0;
    perturbed_cols.clear();
    breakdown_col = kNone;
    fp32 = false;
    fp32_fallback = false;
    degrade_path.clear();
  }
};

// Derives the absolute pivot threshold for factoring `a` under `opt`:
// boost = pivot_delta * max|diag(a)| (computed once per run, so every
// engine and every schedule applies the identical test).
PivotControl make_pivot_control(const SymSparse& a, const FactorizeOptions& opt);

// Shared pivot-accounting state for one factorization run. Engines hand a
// PivotEnv to complete_block, which reports every replaced pivot here.
// Thread-safe: parallel workers record through the internal mutex (the
// lock is only ever taken on the failure path, so clean runs pay nothing).
//
// Strict-policy semantics differ by engine shape:
//  - sequential engines (deferred = false): the first failing pivot throws
//    immediately; since those engines complete block columns in ascending
//    order, the reported column is the minimal failing column.
//  - parallel engines (deferred = true): a raced teardown could surface a
//    non-minimal column (failing blocks may live in disjoint elimination
//    subtrees), so the executor instead boosts the failing pivot, keeps the
//    DAG running to completion, records the minimum failing column, and
//    throws after the join. Every column smaller than the true minimum
//    factors with its true values, so the reported column matches the
//    sequential engines exactly.
class PivotEnv {
 public:
  PivotEnv(const BlockStructure& bs, const PivotControl& control, bool deferred)
      : bs_(bs), control_(control), deferred_(deferred) {}

  const PivotControl& control() const { return control_; }

  // Reports `adjusted` (local columns within diagonal block b, ascending)
  // as replaced pivots; first_bad is the first failing pivot's value.
  // Under non-deferred kStrict this throws; otherwise it records.
  void on_block_pivots(block_id b, const std::vector<idx>& adjusted,
                       double first_bad);

  // True when a deferred strict breakdown was recorded.
  bool has_breakdown() const;

  // Throws the recorded (minimum-column) breakdown. Pre: has_breakdown().
  [[noreturn]] void throw_breakdown() const;

  // Fills *info (sorted perturbation locations, breakdown column). Safe to
  // call with info == nullptr. Call after all workers have joined.
  void export_info(FactorizeInfo* info) const;

 private:
  const BlockStructure& bs_;
  PivotControl control_;
  bool deferred_;
  mutable Mutex mutex_;
  std::vector<idx> perturbed_ SPC_GUARDED_BY(mutex_);  // global columns
  idx breakdown_col_ SPC_GUARDED_BY(mutex_) = kNone;
  ErrorContext breakdown_ctx_ SPC_GUARDED_BY(mutex_);
};

// Offsets (in elements) of every block inside the pooled factor arena.
// Blocks are laid out column by column — the diagonal block of column J
// first, then J's off-diagonal entries in blkptr order — each segment
// aligned to a cache line so adjacent destination blocks never share one.
struct BlockArenaLayout {
  std::vector<i64> diag_off;   // per block column
  std::vector<i64> entry_off;  // per off-diagonal entry
  i64 total = 0;               // elements, alignment padding included
};

// A finished fp64 factor: one arena of dense, row-compressed blocks laid
// out by a BlockArenaLayout (§2.2). The diagonal block of column j is
// w x w with leading dimension w (w = structure->part.width(j)); entry e
// is blkcnt[e] x w with leading dimension blkcnt[e]. The storage is shared
// and const: copies of a factor alias one arena, and nothing writes to it
// once an engine (or the loader) has built it.
struct BlockFactor {
  const BlockStructure* structure = nullptr;  // non-owning
  BlockArenaLayout layout;
  std::shared_ptr<const double[]> arena;

  const double* diag(idx j) const {
    return arena.get() + layout.diag_off[static_cast<std::size_t>(j)];
  }
  const double* offdiag(i64 e) const {
    return arena.get() + layout.entry_off[static_cast<std::size_t>(e)];
  }

  // Entry (global row r, global col c) of the factor, 0 if structurally zero.
  // For validation / small-matrix use only (does a per-call search).
  double entry(idx r, idx c) const;
};

BlockArenaLayout compute_block_arena_layout(const BlockStructure& bs);

// The factor arena of one run in element type T (double or float): one
// 64-byte-aligned allocation laid out by a BlockArenaLayout, with typed block
// addressing. The diagonal block of column j is width x width (leading
// dimension width); entry e is blkcnt[e] x width (leading dimension
// blkcnt[e]). Every engine factors on one of these, so each block operation
// below exists once for both precisions; the loader and the distributed
// executor fill one too, so every BlockFactor comes out of to_factor().
template <class T>
struct FactorArena {
  // Allocates the arena, contents uninitialized (init_block_column fills
  // it). With a budget, the bytes are charged before allocation (throwing
  // kResourceExhausted with typed context on breach) and released when the
  // last reference to the storage drops.
  FactorArena(const BlockStructure& bs, const BlockArenaLayout& layout,
              const std::shared_ptr<governor::MemoryBudget>& budget);

  T* diag(idx j) const {
    return data.get() + layout->diag_off[static_cast<std::size_t>(j)];
  }
  T* entry(i64 e) const {
    return data.get() + layout->entry_off[static_cast<std::size_t>(e)];
  }
  T* block(block_id b) const {
    const idx nb = bs->num_block_cols();
    return b < nb ? diag(static_cast<idx>(b)) : entry(b - nb);
  }

  // The finished factor as the fp64 BlockFactor every solve reads: for
  // T = double the factor shares this allocation (nothing may write to it
  // afterwards); for T = float an exact promotion into a fresh (charged)
  // double arena, so the fp64 solve and refinement apply unchanged.
  BlockFactor to_factor() const;

  const BlockStructure* bs;
  const BlockArenaLayout* layout;
  std::shared_ptr<governor::MemoryBudget> budget;
  std::shared_ptr<T[]> data;
};

// Zeroes block column j's arena segment and scatters A's columns of that
// block column into it (rounded to T). Touches only column j's storage, so
// distinct columns can be initialized concurrently — the parallel executor
// first-touches each column's segment on the worker that initializes it.
template <class T>
void init_block_column(const SymSparse& a, const BlockStructure& bs, idx j,
                       const FactorArena<T>& f);

// Factors `a` (which must already be permuted to the ordering the structure
// was built from) in element type T: the right-looking sweep — after
// completing block column K, all its updates are pushed into later columns
// (the order the block fan-out method uses). Under the default strict
// policy, throws Error(kNotPositiveDefinite) at the first failing pivot;
// under kPerturb, boosts failing pivots and reports them through *info (may
// be null). `tg` must be build_task_graph(bs).
//
// T = float computes the whole factor in fp32 (half the bytes per GEMM,
// twice the lanes per vector op) and returns it promoted to double, with
// info->fp32 set; one or two refinement sweeps against the fp64 matrix then
// recover working accuracy (docs/ROBUSTNESS.md). Pivot tests run in double,
// but the pivot *values* are fp32 partial results, so a barely-SPD matrix
// can break down in fp32 and still factor in fp64; SparseCholesky catches
// that and retries in fp64.
template <class T = double>
BlockFactor block_factorize(const SymSparse& a, const BlockStructure& bs,
                            const TaskGraph& tg,
                            const FactorizeOptions& opt = {},
                            FactorizeInfo* info = nullptr);

// --- Block operations shared by the engines ---------------------------------

// Two-phase BMOD(I,J,K), the contention-avoiding split the shared-memory
// executor uses: `compute_block_mod` runs the GEMM of the two source blocks
// into caller scratch (`update`, blkcnt[I] x blkcnt[J]) and resolves the
// destination row positions (no access to the destination block, so it
// needs no lock); `scatter_block_mod` adds the finished update into `dest`,
// which has the destination block's shape, and is the only part that must
// hold the destination's lock.
template <class T>
void compute_block_mod(const BlockStructure& bs, const TaskGraph& tg,
                       const BlockMod& m, const T* src_i, const T* src_j,
                       T* update, std::vector<idx>& rel_rows);
template <class T>
void scatter_block_mod(const BlockStructure& bs, const TaskGraph& tg,
                       const BlockMod& m, const T* update,
                       const std::vector<idx>& rel_rows, T* dest);

// Both phases on DenseMatrix storage — used by the distributed executor,
// whose data lives in per-processor stores rather than one arena. `dest`
// must have the destination block's shape (width x width for a diagonal
// destination).
void apply_block_mod_to(const BlockStructure& bs, const TaskGraph& tg,
                        const BlockMod& m, const DenseMatrix& src_i,
                        const DenseMatrix& src_j, DenseMatrix& dest,
                        DenseMatrix& update, std::vector<idx>& rel_rows);

// Runs a block's completion operation: BFAC for diagonal blocks, BDIV for
// off-diagonal ones (the diagonal block of its column must be factored).
// Failed BFAC pivots are routed through the run's PivotEnv (throw / record /
// boost-and-defer).
template <class T>
void complete_block(const BlockStructure& bs, block_id b,
                    const FactorArena<T>& f, PivotEnv& pivots);

// Per-destination-block mutexes: the shared-memory executors serialize
// scatters into the same destination block on these. One annotated
// spc::Mutex per block id, so scatter call sites take
//   LockGuard lock(locks.for_block(mod.dest));
// and the clang thread-safety build checks the guard is actually scoped
// around the scatter.
class BlockLocks {
 public:
  explicit BlockLocks(i64 num_blocks);
  Mutex& for_block(block_id b) { return locks_[static_cast<std::size_t>(b)]; }

 private:
  std::unique_ptr<Mutex[]> locks_;
};

}  // namespace spc
