#include "factor/numeric_factor.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace spc {

PivotControl make_pivot_control(const SymSparse& a, const FactorizeOptions& opt) {
  PivotControl pc;
  pc.policy = opt.pivot_policy;
  if (opt.pivot_policy == PivotPolicy::kPerturb) {
    // boost = delta * max|diag(A)|, computed once so every engine and every
    // schedule applies the identical absolute test.
    double max_diag = 0.0;
    const auto& ptr = a.col_ptr();
    const auto& rows = a.row_idx();
    const auto& val = a.values();
    for (idx c = 0; c < a.num_rows(); ++c) {
      for (i64 k = ptr[static_cast<std::size_t>(c)];
           k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
        if (rows[static_cast<std::size_t>(k)] == c) {
          max_diag = std::max(max_diag, std::abs(val[static_cast<std::size_t>(k)]));
          break;
        }
      }
    }
    pc.boost = opt.pivot_delta * max_diag;
    // Degenerate scale (zero/NaN diagonal): fall back to an absolute floor
    // so the boost value stays positive and the factorization can complete.
    if (!(pc.boost > 0.0)) {
      pc.boost = opt.pivot_delta > 0.0 ? opt.pivot_delta : kDefaultPivotDelta;
    }
  }
  return pc;
}

void PivotEnv::on_block_pivots(block_id b, const std::vector<idx>& adjusted,
                               double first_bad) {
  const idx first = bs_.part.first_col[static_cast<std::size_t>(b)];
  if (control_.policy == PivotPolicy::kPerturb) {
    LockGuard lock(mutex_);
    for (const idx local : adjusted) perturbed_.push_back(first + local);
    return;
  }
  ErrorContext ctx;
  ctx.column = first + adjusted.front();
  ctx.supernode = bs_.part.sn_of_block[static_cast<std::size_t>(b)];
  ctx.block_i = static_cast<std::int32_t>(b);
  ctx.block_j = static_cast<std::int32_t>(b);
  ctx.pivot = first_bad;
  ctx.has_pivot = true;
  if (!deferred_) {
    throw_not_spd("factorize: matrix is not positive definite", ctx);
  }
  LockGuard lock(mutex_);
  if (breakdown_col_ == kNone || ctx.column < breakdown_col_) {
    breakdown_col_ = ctx.column;
    breakdown_ctx_ = ctx;
  }
}

bool PivotEnv::has_breakdown() const {
  LockGuard lock(mutex_);
  return breakdown_col_ != kNone;
}

void PivotEnv::throw_breakdown() const {
  ErrorContext ctx;
  {
    LockGuard lock(mutex_);
    SPC_CHECK(breakdown_col_ != kNone, "PivotEnv: no breakdown recorded");
    ctx = breakdown_ctx_;
  }
  throw_not_spd("factorize: matrix is not positive definite", ctx);
}

void PivotEnv::export_info(FactorizeInfo* info) const {
  if (info == nullptr) return;
  LockGuard lock(mutex_);
  info->perturbed_cols = perturbed_;
  std::sort(info->perturbed_cols.begin(), info->perturbed_cols.end());
  info->perturbed_pivots = static_cast<i64>(info->perturbed_cols.size());
  info->breakdown_col = breakdown_col_;
}

double BlockFactor::entry(idx r, idx c) const {
  const BlockStructure& bs = *structure;
  SPC_CHECK(r >= c, "BlockFactor::entry: upper triangle requested");
  const idx j = bs.part.block_of_col[c];
  const idx cj = c - bs.part.first_col[j];
  if (bs.part.block_of_col[r] == j) {
    return diag(j)[static_cast<std::size_t>(cj) * bs.part.width(j) +
                   (r - bs.part.first_col[j])];
  }
  const i64 e = bs.find_entry(j, bs.part.block_of_col[r]);
  if (e == kNone) return 0.0;
  const idx* rows = bs.entry_rows_begin(e);
  const idx* end = bs.entry_rows_end(e);
  const idx* it = std::lower_bound(rows, end, r);
  if (it == end || *it != r) return 0.0;
  return offdiag(e)[static_cast<std::size_t>(cj) * bs.blkcnt[e] + (it - rows)];
}

BlockArenaLayout compute_block_arena_layout(const BlockStructure& bs) {
  // Round every segment up to a cache line (8 doubles) so no two blocks
  // share one — scatters into adjacent destination blocks never false-share.
  constexpr i64 kLine = 8;
  const idx nb = bs.num_block_cols();
  BlockArenaLayout layout;
  layout.diag_off.resize(static_cast<std::size_t>(nb));
  layout.entry_off.resize(static_cast<std::size_t>(bs.num_entries()));
  i64 off = 0;
  for (idx j = 0; j < nb; ++j) {
    const i64 w = bs.part.width(j);
    layout.diag_off[static_cast<std::size_t>(j)] = off;
    off += (w * w + kLine - 1) / kLine * kLine;
    for (i64 e = bs.blkptr[j]; e < bs.blkptr[j + 1]; ++e) {
      layout.entry_off[static_cast<std::size_t>(e)] = off;
      off += (static_cast<i64>(bs.blkcnt[e]) * w + kLine - 1) / kLine * kLine;
    }
  }
  layout.total = off;
  return layout;
}

namespace {

// One governed, 64-byte-aligned arena allocation of `elems` elements of T.
template <class T>
std::shared_ptr<T[]> allocate_arena(
    i64 elems, const std::shared_ptr<governor::MemoryBudget>& budget) {
  constexpr std::align_val_t kAlign{64};
  constexpr const char* kWhat = std::is_same_v<T, float>
                                    ? "fp32 arena allocation"
                                    : "factor arena allocation";
  if (elems <= 0) return nullptr;
  // Charge before allocating: a breach surfaces as kResourceExhausted with
  // the full accounting instead of bad_alloc. The deleter refunds the bytes
  // when the last reference drops, so the budget tracks live arenas.
  const i64 bytes = elems * static_cast<i64>(sizeof(T));
  SPC_FAULT_POINT(fault::Site::kAlloc, elems, kWhat);
  if (budget != nullptr) budget->charge(bytes, "factorize");
  T* p = nullptr;
  try {
    p = static_cast<T*>(::operator new[](static_cast<std::size_t>(bytes), kAlign));
  } catch (const std::bad_alloc&) {
    if (budget != nullptr) budget->release(bytes);
    throw Error(std::string(kWhat) + " of " + std::to_string(bytes) +
                    " bytes failed",
                ErrorKind::kResourceExhausted);
  } catch (...) {
    if (budget != nullptr) budget->release(bytes);
    throw;
  }
  return std::shared_ptr<T[]>(p, [budget, bytes](T* q) {
    ::operator delete[](q, kAlign);
    if (budget != nullptr) budget->release(bytes);
  });
}

// Positions of each element of `sub` (ascending) within `super` (ascending,
// superset of sub). Used to scatter update rows into destination rows.
void relative_positions(const idx* sub_begin, const idx* sub_end,
                        const idx* super_begin, const idx* super_end,
                        std::vector<idx>& out) {
  out.clear();
  const idx* s = super_begin;
  for (const idx* p = sub_begin; p != sub_end; ++p) {
    while (s != super_end && *s < *p) ++s;
    SPC_CHECK(s != super_end && *s == *p,
              "relative_positions: row missing from destination (containment violated)");
    out.push_back(static_cast<idx>(s - super_begin));
  }
}

}  // namespace

template <class T>
FactorArena<T>::FactorArena(
    const BlockStructure& bs_in, const BlockArenaLayout& layout_in,
    const std::shared_ptr<governor::MemoryBudget>& budget_in)
    : bs(&bs_in), layout(&layout_in), budget(budget_in) {
  SPC_CHECK(static_cast<idx>(layout_in.diag_off.size()) == bs_in.num_block_cols() &&
                static_cast<i64>(layout_in.entry_off.size()) == bs_in.num_entries(),
            "FactorArena: layout/structure mismatch");
  data = allocate_arena<T>(layout_in.total, budget_in);
}

template <class T>
BlockFactor FactorArena<T>::to_factor() const {
  BlockFactor f;
  f.structure = bs;
  f.layout = *layout;
  if constexpr (std::is_same_v<T, double>) {
    f.arena = data;
  } else {
    // Exact: every float is a double. The layouts share element offsets, so
    // promotion is one linear pass (init zeroed the padding too).
    std::shared_ptr<double[]> promoted =
        allocate_arena<double>(layout->total, budget);
    std::copy(data.get(), data.get() + layout->total, promoted.get());
    f.arena = std::move(promoted);
  }
  return f;
}

template <class T>
void init_block_column(const SymSparse& a, const BlockStructure& bs, idx j,
                       const FactorArena<T>& f) {
  // Column j's blocks, padding included, are one contiguous segment.
  const idx nb = bs.num_block_cols();
  std::fill(f.diag(j),
            j + 1 < nb ? f.diag(j + 1) : f.data.get() + f.layout->total, T(0));

  // Scatter A's columns of block column j. Rows within a column are (almost
  // always) ascending, so consecutive entries tend to hit the same
  // destination block: cache the entry lookup per (column, block-row)
  // segment and advance a moving cursor through the entry's row list instead
  // of a fresh binary search per nonzero. Falls back to a full search when
  // the input is not sorted, so correctness never depends on the ordering.
  const auto& ptr = a.col_ptr();
  const auto& rowv = a.row_idx();
  const auto& val = a.values();
  const idx first = bs.part.first_col[j];
  const idx w = bs.part.width(j);
  T* diag = f.diag(j);
  for (idx c = first; c < first + w; ++c) {
    const idx cj = c - first;
    idx cur_bi = -1;
    i64 e = kNone;
    const idx* rows = nullptr;
    const idx* end = nullptr;
    const idx* cursor = nullptr;
    for (i64 k = ptr[static_cast<std::size_t>(c)]; k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = rowv[static_cast<std::size_t>(k)];
      const T v = static_cast<T>(SPC_FAULT_POISON(
          (static_cast<std::uint64_t>(c) << 32) | static_cast<std::uint32_t>(r),
          val[static_cast<std::size_t>(k)]));
      if (bs.part.block_of_col[r] == j) {
        diag[static_cast<std::size_t>(cj) * w + (r - first)] = v;
        continue;
      }
      const idx bi = bs.part.block_of_col[r];
      if (bi != cur_bi) {
        e = bs.find_entry(j, bi);
        SPC_CHECK(e != kNone, "init_block_column: A entry outside factor structure");
        rows = bs.entry_rows_begin(e);
        end = bs.entry_rows_end(e);
        cursor = rows;
        cur_bi = bi;
      }
      const idx* it = std::lower_bound(cursor, end, r);
      if (it == end || *it != r) it = std::lower_bound(rows, end, r);
      SPC_CHECK(it != end && *it == r, "init_block_column: A row outside block rows");
      f.entry(e)[static_cast<std::size_t>(cj) * bs.blkcnt[e] +
                 static_cast<idx>(it - rows)] = v;
      cursor = it;
    }
  }
}

template <class T>
void compute_block_mod(const BlockStructure& bs, const TaskGraph& tg,
                       const BlockMod& m, const T* src_i, const T* src_j,
                       T* update, std::vector<idx>& rel_rows) {
  // Key the BMOD injection site on the mod's (dest, src_a, src_b) triple so
  // the decision is identical across engines and thread counts.
  SPC_FAULT_POINT(fault::Site::kKernel,
                  (static_cast<std::uint64_t>(m.dest) << 42) ^
                      (static_cast<std::uint64_t>(m.src_a) << 21) ^
                      static_cast<std::uint64_t>(m.src_b),
                  "BMOD");
  const idx nb = bs.num_block_cols();
  const i64 ei = m.src_a - nb;
  const idx mi = bs.blkcnt[ei];
  const idx mj = bs.blkcnt[m.src_b - nb];
  const idx w = bs.part.width(tg.col_of_block[static_cast<std::size_t>(m.src_a)]);
  gemm_nt_neg_raw(mi, mj, w, src_i, mi, src_j, mj, update, mi);  // -L_IK L_JK^T
  if (!is_diag_block(bs, m.dest)) {
    const i64 ed = m.dest - nb;
    relative_positions(bs.entry_rows_begin(ei), bs.entry_rows_end(ei),
                       bs.entry_rows_begin(ed), bs.entry_rows_end(ed), rel_rows);
  }
}

template <class T>
void scatter_block_mod(const BlockStructure& bs, const TaskGraph& tg,
                       const BlockMod& m, const T* update,
                       const std::vector<idx>& rel_rows, T* dest) {
  const idx nb = bs.num_block_cols();
  const i64 ei = m.src_a - nb;
  const i64 ej = m.src_b - nb;
  const idx rows = bs.blkcnt[ei];
  const idx cols = bs.blkcnt[ej];
  const idx* src_rows_i = bs.entry_rows_begin(ei);
  const idx* src_rows_j = bs.entry_rows_begin(ej);
  const idx j = tg.col_of_block[static_cast<std::size_t>(m.dest)];
  const idx first_j = bs.part.first_col[j];
  if (is_diag_block(bs, m.dest)) {
    // Destination is the diagonal block L_JJ (lower triangle only). A BMOD
    // into a diagonal block has I == J, so src_a == src_b and the row/column
    // index lists coincide: the lower triangle of the destination is exactly
    // rr >= cc, no per-element test needed.
    const idx ld = bs.part.width(j);
    for (idx cc = 0; cc < cols; ++cc) {
      T* dcol = dest + static_cast<std::size_t>(src_rows_j[cc] - first_j) * ld;
      const T* ucol = update + static_cast<std::size_t>(cc) * rows;
      for (idx rr = cc; rr < rows; ++rr) {
        dcol[src_rows_i[rr] - first_j] += ucol[rr];
      }
    }
    return;
  }
  // The source rows usually land in a few contiguous runs of destination
  // rows (one run for mesh problems; a handful even on irregular ones).
  // Decompose rel_rows into runs once per mod, then scatter each column with
  // plain vector adds per run — these vectorize, unlike the indexed fallback
  // below.
  const idx ld = bs.blkcnt[m.dest - nb];
  constexpr int kMaxRuns = 48;
  idx run_start[kMaxRuns];  // first source row of the run
  idx run_len[kMaxRuns];
  idx run_dst[kMaxRuns];  // destination row of the run's first source row
  int nruns = 0;
  for (idx rr = 0; rr < rows && nruns >= 0;) {
    const idx start = rr;
    idx prev = rel_rows[static_cast<std::size_t>(rr)];
    for (++rr; rr < rows && rel_rows[static_cast<std::size_t>(rr)] == prev + 1;
         ++rr) {
      prev = rel_rows[static_cast<std::size_t>(rr)];
    }
    if (nruns == kMaxRuns) {
      nruns = -1;  // too fragmented; use the indexed loop
      break;
    }
    run_start[nruns] = start;
    run_len[nruns] = rr - start;
    run_dst[nruns] = rel_rows[static_cast<std::size_t>(start)];
    ++nruns;
  }
  for (idx cc = 0; cc < cols; ++cc) {
    T* dcol = dest + static_cast<std::size_t>(src_rows_j[cc] - first_j) * ld;
    const T* ucol = update + static_cast<std::size_t>(cc) * rows;
    if (nruns >= 0) {
      for (int r = 0; r < nruns; ++r) {
        T* d = dcol + run_dst[r];
        const T* u = ucol + run_start[r];
        const idx len = run_len[r];
        for (idx i = 0; i < len; ++i) d[i] += u[i];
      }
    } else {
      for (idx rr = 0; rr < rows; ++rr) {
        dcol[rel_rows[static_cast<std::size_t>(rr)]] += ucol[rr];
      }
    }
  }
}

void apply_block_mod_to(const BlockStructure& bs, const TaskGraph& tg,
                        const BlockMod& m, const DenseMatrix& src_i,
                        const DenseMatrix& src_j, DenseMatrix& dest,
                        DenseMatrix& update, std::vector<idx>& rel_rows) {
  update.resize_for_overwrite(src_i.rows(), src_j.rows());
  compute_block_mod(bs, tg, m, src_i.data(), src_j.data(), update.data(),
                    rel_rows);
  scatter_block_mod(bs, tg, m, update.data(), rel_rows, dest.data());
}

template <class T>
void complete_block(const BlockStructure& bs, block_id b,
                    const FactorArena<T>& f, PivotEnv& pivots) {
  if (is_diag_block(bs, b)) {
    SPC_FAULT_POINT(fault::Site::kKernel, b, "BFAC");
    const idx w = bs.part.width(static_cast<idx>(b));
    std::vector<idx> adjusted;
    double first_bad = 0.0;
    if (potrf_lower_guarded(w, f.diag(static_cast<idx>(b)), w, pivots.control(),
                            adjusted, &first_bad) > 0) {
      pivots.on_block_pivots(b, adjusted, first_bad);
    }
    return;
  }
  SPC_FAULT_POINT(fault::Site::kKernel, b, "BDIV");
  const i64 e = b - bs.num_block_cols();
  // The owning column of entry e: the last blkptr start at or before e.
  const idx col = static_cast<idx>(
      std::upper_bound(bs.blkptr.begin(), bs.blkptr.end(), e) -
      bs.blkptr.begin() - 1);
  const idx w = bs.part.width(col);
  trsm_right_ltrans(bs.blkcnt[e], w, f.diag(col), w, f.entry(e), bs.blkcnt[e]);
}

template <class T>
BlockFactor block_factorize(const SymSparse& a, const BlockStructure& bs,
                            const TaskGraph& tg, const FactorizeOptions& opt,
                            FactorizeInfo* info) {
  SPC_CHECK(a.num_rows() == bs.part.num_cols(),
            "block_factorize: matrix/structure size mismatch");
  if (info != nullptr) info->reset();
  const idx nb = bs.num_block_cols();
  const BlockArenaLayout layout = compute_block_arena_layout(bs);
  const FactorArena<T> f(bs, layout, opt.budget);
  for (idx j = 0; j < nb; ++j) init_block_column(a, bs, j, f);

  // Right-looking sweep: factor column K, then push its updates. Columns
  // complete in ascending order, so the first strict pivot failure is the
  // minimal failing column.
  std::vector<T> update;
  std::vector<idx> rel_rows;
  PivotEnv pivots(bs, make_pivot_control(a, opt), /*deferred=*/false);
  std::size_t cursor = 0;
  for (idx k = 0; k < nb; ++k) {
    // Supernode-boundary deadline check: one clock read per block column.
    governor::Deadline::check(opt.deadline, "factorize");
    complete_block(bs, k, f, pivots);  // BFAC(K,K)
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      complete_block(bs, nb + e, f, pivots);  // BDIV(I,K)
    }
    for (; cursor < tg.mods.size() && tg.mods[cursor].col_k == k; ++cursor) {
      const BlockMod& m = tg.mods[cursor];  // BMOD(I,J,K)
      update.resize(static_cast<std::size_t>(bs.blkcnt[m.src_a - nb]) *
                    static_cast<std::size_t>(bs.blkcnt[m.src_b - nb]));
      compute_block_mod(bs, tg, m, f.block(m.src_a), f.block(m.src_b),
                        update.data(), rel_rows);
      scatter_block_mod(bs, tg, m, update.data(), rel_rows, f.block(m.dest));
    }
  }
  SPC_CHECK(cursor == tg.mods.size(), "block_factorize: mods not consumed");
  pivots.export_info(info);
  BlockFactor out = f.to_factor();
  if (info != nullptr) info->fp32 = std::is_same_v<T, float>;
  return out;
}

BlockLocks::BlockLocks(i64 num_blocks)
    : locks_(std::make_unique<Mutex[]>(static_cast<std::size_t>(num_blocks))) {
  SPC_CHECK(num_blocks >= 0, "BlockLocks: negative block count");
}

#define SPC_FACTOR_INSTANTIATE(T)                                            \
  template struct FactorArena<T>;                                            \
  template void init_block_column<T>(const SymSparse&, const BlockStructure&, \
                                     idx, const FactorArena<T>&);            \
  template void compute_block_mod<T>(const BlockStructure&, const TaskGraph&, \
                                     const BlockMod&, const T*, const T*, T*, \
                                     std::vector<idx>&);                     \
  template void scatter_block_mod<T>(const BlockStructure&, const TaskGraph&, \
                                     const BlockMod&, const T*,              \
                                     const std::vector<idx>&, T*);           \
  template void complete_block<T>(const BlockStructure&, block_id,          \
                                  const FactorArena<T>&, PivotEnv&);         \
  template BlockFactor block_factorize<T>(const SymSparse&,                 \
                                          const BlockStructure&,             \
                                          const TaskGraph&,                  \
                                          const FactorizeOptions&,           \
                                          FactorizeInfo*);
SPC_FACTOR_INSTANTIATE(double)
SPC_FACTOR_INSTANTIATE(float)
#undef SPC_FACTOR_INSTANTIATE

}  // namespace spc
