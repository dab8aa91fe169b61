// Block-level sparse structure of the factor.
//
// For block column J (a chunk of supernode S), the off-diagonal dense rows
// are the later columns of S followed by the row structure of S (both
// ascending, so the concatenation is sorted). Rows are grouped by the block
// row subset containing them, giving the nonzero blocks L_IJ with I > J.
// The diagonal block L_JJ (dense width x width lower triangle) is implicit.
#pragma once

#include <vector>

#include "blocks/partition.hpp"
#include "support/types.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace spc {

struct BlockStructure {
  BlockPartition part;

  // Per block column J: concatenated ascending off-diagonal row ids.
  std::vector<i64> rowptr;  // size N+1
  std::vector<idx> rowidx;

  // Off-diagonal block entries, CSC-like over block columns:
  std::vector<i64> blkptr;  // size N+1
  std::vector<idx> blkrow;  // block row I of each entry (ascending within a column)
  std::vector<i64> blkoff;  // start of the entry's rows within rowidx
  std::vector<idx> blkcnt;  // number of dense rows in the entry

  idx num_block_cols() const { return part.count(); }
  i64 num_entries() const { return blkptr.empty() ? 0 : blkptr.back(); }

  // Entry index of block (I, J), or kNone if L_IJ is structurally zero.
  // I must be > J (the diagonal block is implicit).
  i64 find_entry(idx j, idx i) const;

  // Dense row ids of entry e.
  const idx* entry_rows_begin(i64 e) const { return rowidx.data() + blkoff[e]; }
  const idx* entry_rows_end(i64 e) const { return rowidx.data() + blkoff[e] + blkcnt[e]; }

  // Total stored factor entries (diagonal triangles + dense block rows).
  i64 stored_entries() const;

  // Throws Error on the first inconsistency. Checks sizes and ranges before
  // it indexes, so it is safe on untrusted arrays (a loaded factor file).
  void validate() const;
};

BlockStructure build_block_structure(const SymbolicFactor& sf, idx block_size);

// Same, from a caller-built partition (e.g. the variable-block-size
// experiment); `part` must partition exactly sf's columns along supernode
// boundaries.
BlockStructure build_block_structure(const SymbolicFactor& sf, BlockPartition part);

}  // namespace spc
