#include "factor/parallel_factor.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "factor/scheduler.hpp"
#include "factor/task_run.hpp"
#include "support/error.hpp"
#include "support/sync.hpp"
#include "support/work_queue.hpp"

namespace spc {
namespace {

constexpr i64 kEmptyList = -1;  // sentinel for the per-destination mod lists

// --- The one footprint formula -----------------------------------------------
// ParallelWorkspace charges these pieces where it allocates them (the plan
// arrays in its constructor, the counters and per-worker scratch in
// prepare_run); estimate_parallel_factor_bytes sums the same pieces, so the
// admission estimate cannot drift from the charges.

struct PlanExtents {
  i64 src_entries = 0;  // mods-by-source CSR entries
  i64 max_update = 0;   // high-water GEMM result (elements)
  i64 max_block = 0;    // high-water destination block (elements)
};

PlanExtents plan_extents(const BlockStructure& bs, const TaskGraph& tg) {
  PlanExtents x;
  for (const BlockMod& m : tg.mods) {
    x.src_entries += m.src_a == m.src_b ? 1 : 2;
    x.max_update = std::max(
        x.max_update,
        static_cast<i64>(tg.rows_of_block[static_cast<std::size_t>(m.src_a)]) *
            tg.rows_of_block[static_cast<std::size_t>(m.src_b)]);
  }
  for (block_id b = 0; b < tg.num_blocks(); ++b) {
    x.max_block = std::max(
        x.max_block,
        static_cast<i64>(tg.rows_of_block[static_cast<std::size_t>(b)]) *
            bs.part.width(tg.col_of_block[static_cast<std::size_t>(b)]));
  }
  return x;
}

// Static per-plan arrays: completion + mod priorities, dest_prio, the src
// CSR, and the arena offsets.
i64 plan_bytes(const TaskGraph& tg, i64 src_entries,
               const BlockArenaLayout& layout) {
  const i64 num_blocks = tg.num_blocks();
  const i64 num_mods = static_cast<i64>(tg.mods.size());
  return (num_blocks + num_mods + num_blocks + (num_blocks + 1) + src_entries +
          static_cast<i64>(layout.diag_off.size() + layout.entry_off.size())) *
         static_cast<i64>(sizeof(i64));
}

// Per-run atomic counters: deps, dest_head, dest_state per block; pending,
// mod_next per mod.
i64 counter_bytes(const TaskGraph& tg) {
  return tg.num_blocks() * static_cast<i64>(2 * sizeof(spc::atomic<i64>) +
                                            2 * sizeof(spc::atomic<int>)) +
         static_cast<i64>(tg.mods.size()) *
             static_cast<i64>(sizeof(spc::atomic<i64>) + sizeof(spc::atomic<int>));
}

// Per-worker scratch reservation in elements, capped at 32 MiB for safety
// (a buffer that once grew past the cap keeps its capacity, so even
// outsized blocks allocate at most once over the workspace lifetime).
i64 scratch_cap(i64 elems) { return std::min<i64>(elems, i64{1} << 22); }

i64 worker_scratch_bytes(i64 max_update, i64 max_block) {
  return (scratch_cap(max_update) + scratch_cap(max_block)) *
         static_cast<i64>(sizeof(double));
}

}  // namespace

ParallelProfile::Worker ParallelProfile::total() const {
  return sum_fields(workers);
}

ParallelWorkspace::ParallelWorkspace(const BlockStructure& bs_in,
                                     const TaskGraph& tg_in)
    : bs(&bs_in),
      tg(&tg_in),
      prio(compute_task_priorities(bs_in, tg_in)),
      layout(compute_block_arena_layout(bs_in)),
      locks(tg_in.num_blocks()) {
  const i64 num_blocks = tg_in.num_blocks();
  const i64 num_mods = static_cast<i64>(tg_in.mods.size());

  // Drain-task priority: the most critical BMOD waiting on that destination.
  dest_prio.assign(static_cast<std::size_t>(num_blocks), 0);
  for (i64 m = 0; m < num_mods; ++m) {
    i64& p = dest_prio[static_cast<std::size_t>(
        tg_in.mods[static_cast<std::size_t>(m)].dest)];
    p = std::max(p, prio.mod[static_cast<std::size_t>(m)]);
  }

  // CSR of mods by source block.
  src_ptr.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
  for (const BlockMod& mod : tg_in.mods) {
    ++src_ptr[static_cast<std::size_t>(mod.src_a) + 1];
    if (mod.src_b != mod.src_a) ++src_ptr[static_cast<std::size_t>(mod.src_b) + 1];
  }
  for (block_id b = 0; b < num_blocks; ++b) {
    src_ptr[static_cast<std::size_t>(b) + 1] += src_ptr[static_cast<std::size_t>(b)];
  }
  src_mods.resize(static_cast<std::size_t>(src_ptr[static_cast<std::size_t>(num_blocks)]));
  std::vector<i64> cursor(src_ptr.begin(), src_ptr.end() - 1);
  for (i64 m = 0; m < num_mods; ++m) {
    const BlockMod& mod = tg_in.mods[static_cast<std::size_t>(m)];
    src_mods[static_cast<std::size_t>(cursor[static_cast<std::size_t>(mod.src_a)]++)] = m;
    if (mod.src_b != mod.src_a) {
      src_mods[static_cast<std::size_t>(cursor[static_cast<std::size_t>(mod.src_b)]++)] = m;
    }
  }

  // Scratch high-water marks (hoisted here so repeated factorizations of the
  // same plan never recompute or reallocate them) and the static footprint,
  // charged retroactively when prepare_run first sees a budget.
  const PlanExtents x = plan_extents(bs_in, tg_in);
  max_update_elems = x.max_update;
  max_block_elems = x.max_block;
  footprint_bytes = plan_bytes(tg_in, x.src_entries, layout);
}

void ParallelWorkspace::prepare_run(
    int num_threads, bool use_affinity,
    const std::shared_ptr<governor::MemoryBudget>& budget) {
  // Bind (or re-bind) the governed accounting. A budget change re-charges
  // the bytes this workspace already holds under the new budget, so a cached
  // workspace handed to a governed facade is metered from the first run.
  if (budget != charge.budget()) {
    charge.rebind(budget);
    charge.add(footprint_bytes, "factorize");
  }
  if (use_affinity) {
    if (affinity.empty() || affinity_threads != num_threads) {
      affinity = subtree_affinity_partition(num_threads, *bs, *tg);
      affinity_threads = num_threads;
    }
  } else {
    affinity = AffinityPartition{};
    affinity_threads = 0;
  }
  const i64 num_blocks = tg->num_blocks();
  const i64 num_mods = static_cast<i64>(tg->mods.size());
  if (!deps) {
    const i64 counters = counter_bytes(*tg);
    charge.add(counters, "factorize");  // charge before allocating
    footprint_bytes += counters;
    deps = std::make_unique<spc::atomic<i64>[]>(static_cast<std::size_t>(num_blocks));
    pending = std::make_unique<spc::atomic<int>[]>(static_cast<std::size_t>(num_mods));
    mod_next = std::make_unique<spc::atomic<i64>[]>(static_cast<std::size_t>(num_mods));
    dest_head = std::make_unique<spc::atomic<i64>[]>(static_cast<std::size_t>(num_blocks));
    dest_state = std::make_unique<spc::atomic<int>[]>(static_cast<std::size_t>(num_blocks));
  }
  // All counter resets below are relaxed: prepare_run executes on the
  // calling thread before any worker spawns, and std::thread creation
  // publishes everything sequenced before it to the new thread.
  const idx nb = bs->num_block_cols();
  for (block_id b = 0; b < num_blocks; ++b) {
    deps[static_cast<std::size_t>(b)].store(
        tg->mods_into[static_cast<std::size_t>(b)] + (b >= nb ? 1 : 0),
        std::memory_order_relaxed);
    dest_head[static_cast<std::size_t>(b)].store(kEmptyList, std::memory_order_relaxed);
    dest_state[static_cast<std::size_t>(b)].store(0, std::memory_order_relaxed);
  }
  for (i64 m = 0; m < num_mods; ++m) {
    pending[static_cast<std::size_t>(m)].store(
        tg->mods[static_cast<std::size_t>(m)].src_a ==
                tg->mods[static_cast<std::size_t>(m)].src_b
            ? 1
            : 2,
        std::memory_order_relaxed);
    mod_next[static_cast<std::size_t>(m)].store(kEmptyList, std::memory_order_relaxed);
  }
  if (static_cast<int>(scratch.size()) < num_threads) {
    // Per-worker scratch growth is the other big workspace allocation:
    // charge the new workers' reserved buffers before they materialize.
    const i64 grow_bytes = (num_threads - static_cast<i64>(scratch.size())) *
                           worker_scratch_bytes(max_update_elems, max_block_elems);
    charge.add(grow_bytes, "factorize");
    footprint_bytes += grow_bytes;
    scratch.resize(static_cast<std::size_t>(num_threads));
  }
  // High-water scratch reservation, in doubles so both precisions fit.
  for (WorkerScratch& s : scratch) {
    s.update.reserve(static_cast<std::size_t>(scratch_cap(max_update_elems)) *
                     sizeof(double));
    s.accum.reserve(static_cast<std::size_t>(scratch_cap(max_block_elems)) *
                    sizeof(double));
  }
}

void ParallelWorkspace::ScratchBuffer::Free::operator()(void* p) const {
  ::operator delete(p, std::align_val_t{64});
}

void ParallelWorkspace::ScratchBuffer::reserve(std::size_t bytes) {
  if (bytes <= bytes_) return;
  ptr_.reset();
  bytes_ = 0;
  ptr_.reset(::operator new(bytes, std::align_val_t{64}));
  bytes_ = bytes;
}

namespace {

// ---------------------------------------------------------------------------
// Work-stealing executor (default backend).
//
// Task ids: [0, num_blocks) are completions (BFAC/BDIV of block b);
// num_blocks + d is "drain destination block d" — apply every BMOD currently
// queued on d's ready-mod list, accumulated in scratch and committed under
// d's lock once per batch. Priorities are the critical-path heights from
// factor/scheduler.hpp; ready batches are pushed in ascending priority so
// each deque's LIFO end holds its most critical task, and thieves pick
// victims by the deques' priority hints. The caller prepares the workspace
// (prepare_run) before constructing the executor.
// ---------------------------------------------------------------------------
template <class T>
class WorkStealingExecutor {
 public:
  WorkStealingExecutor(const SymSparse& a, const BlockStructure& bs,
                       const TaskGraph& tg, int num_threads,
                       ParallelWorkspace& ws, ParallelProfile* prof,
                       PivotEnv& pivots, const spc::atomic<bool>* cancel,
                       bool affinity,
                       const std::shared_ptr<governor::MemoryBudget>& budget,
                       const governor::Deadline* deadline)
      : a_(a),
        bs_(bs),
        tg_(tg),
        ws_(ws),
        arena_(bs, ws.layout, budget),
        run_(num_threads, cancel, deadline, "factorize",
             "factorization cancelled"),
        affinity_(affinity),
        queues_(num_threads),
        prof_(prof),
        pivots_(pivots) {
    if (prof_) {
      prof_->workers.assign(static_cast<std::size_t>(num_threads), {});
      prof_->wall_s = 0;
      prof_->steals = 0;
      prof_->affinity = affinity;
    }
  }

  BlockFactor run() {
    const auto t0 = TaskClock::now();
    seed_initial_tasks();
    if (tg_.num_blocks() == 0) queues_.shutdown();  // nothing will ever fire
    run_.run([this](int id) { worker(id); });
    SPC_CHECK(completed_.load() == tg_.num_blocks(),
              "block_factorize_parallel: not all blocks completed");
    if (prof_) {
      prof_->wall_s = seconds_since(t0);
      prof_->steals = queues_.steals();
    }
    return arena_.to_factor();
  }

 private:
  i64 task_priority(i64 task) const {
    return task < tg_.num_blocks()
               ? ws_.prio.completion[static_cast<std::size_t>(task)]
               : ws_.dest_prio[static_cast<std::size_t>(task - tg_.num_blocks())];
  }

  // Pinning worker of a task (completion of block b, or drain of block d),
  // from its block column's affinity owner; kShared (-1) when unpinned or
  // affinity is off.
  int task_owner(i64 task) const {
    if (!affinity_) return AffinityPartition::kShared;
    const block_id b =
        task < tg_.num_blocks() ? task : task - tg_.num_blocks();
    return ws_.affinity.owner[static_cast<std::size_t>(
        tg_.col_of_block[static_cast<std::size_t>(b)])];
  }

  // Deals the initially ready completions before the workers spawn: pinned
  // tasks straight to their owner's private stack, shared ones round-robin.
  void seed_initial_tasks() {
    std::vector<i64> ready;
    for (block_id b = 0; b < tg_.num_blocks(); ++b) {
      // relaxed: still single-threaded (runs before the workers spawn).
      if (ws_.deps[static_cast<std::size_t>(b)].load(std::memory_order_relaxed) ==
          0) {
        ready.push_back(b);
      }
    }
    push_ready(kSeeding, ready);
  }

  void worker(int id) {
    ParallelProfile::Worker* pw =
        prof_ ? &prof_->workers[static_cast<std::size_t>(id)] : nullptr;
    // Phase 0: first-touch initialization. Each worker zeroes and scatters A
    // into the block columns it is dealt, so a column's arena pages are
    // mapped by a worker that will likely keep updating them. Under affinity
    // each worker initializes exactly its own subtrees' columns (the columns
    // it will factor and update); shared columns are dealt round-robin by
    // their ordinal, which reduces to the pre-affinity j % threads deal when
    // affinity is off.
    {
      const auto t0 = pw ? TaskClock::now() : TaskClock::time_point{};
      try {
        idx shared = 0;
        for (idx j = 0; j < bs_.num_block_cols(); ++j) {
          const int o = affinity_
                            ? ws_.affinity.owner[static_cast<std::size_t>(j)]
                            : AffinityPartition::kShared;
          const bool mine =
              o >= 0 ? o == id
                     : static_cast<int>(shared % run_.threads()) == id;
          if (o < 0) ++shared;
          if (mine) init_block_column(a_, bs_, j, arena_);
        }
      } catch (...) {
        run_.fail(std::current_exception());
      }
      if (pw) pw->init_s += seconds_since(t0);
    }
    // Every block must be scattered before any BFAC can run.
    run_.barrier();
    // After a failure the loop keeps running: remaining tasks drain as
    // no-ops (run_completion / run_dest skip the numeric work but still
    // perform every counter decrement), so the DAG terminates through the
    // normal completed_ == num_blocks path and the workspace counters are
    // left fully consumed — ready for the next prepare_run.
    ParallelWorkspace::WorkerScratch& s =
        ws_.scratch[static_cast<std::size_t>(id)];
    run_.drain(queues_, id, pw ? &pw->idle_s : nullptr,
               [&](const WorkItem& item, AcquireSource src) {
                 if (pw) {
                   if (src == AcquireSource::kPrivate) ++pw->affinity_hits;
                   // A stolen task with an owner is a spilled pinned task
                   // crossing the frontier — the structural argument says
                   // this stays 0.
                   if (src == AcquireSource::kSteal && task_owner(item.id) >= 0) {
                     ++pw->below_frontier_steals;
                   }
                 }
                 if (item.id < tg_.num_blocks()) {
                   run_completion(id, item.id, pw);
                 } else {
                   run_dest(id, item.id - tg_.num_blocks(), s, pw);
                 }
               });
  }

  void run_completion(int id, block_id b, ParallelProfile::Worker* pw) {
    // The numeric work is fenced off from the release bookkeeping below:
    // whether it succeeds, throws (recorded, cancels the run), or is skipped
    // because the run is already cancelled, every dependent counter is still
    // decremented so the DAG drains to completion.
    if (!run_.cancelled()) {
      const auto t0 = pw ? TaskClock::now() : TaskClock::time_point{};
      try {
        complete_block(bs_, b, arena_, pivots_);
      } catch (...) {
        run_.fail(std::current_exception());
      }
      if (pw) {
        if (is_diag_block(bs_, b)) {
          pw->bfac_s += seconds_since(t0);
          ++pw->bfacs;
        } else {
          pw->bdiv_s += seconds_since(t0);
          ++pw->bdivs;
        }
      }
    }
    // Fire the BMODs this block sources: the last pending-source decrement
    // appends the mod to its destination's ready list, and the first append
    // to an idle destination enqueues that destination's drain task.
    std::vector<i64>& ready = ws_.scratch[static_cast<std::size_t>(id)].ready;
    ready.clear();
    for (i64 k = ws_.src_ptr[static_cast<std::size_t>(b)];
         k < ws_.src_ptr[static_cast<std::size_t>(b) + 1]; ++k) {
      const i64 m = ws_.src_mods[static_cast<std::size_t>(k)];
      if (ws_.pending[static_cast<std::size_t>(m)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        release_mod(m, ready);
      }
    }
    // A factored diagonal block releases its column's BDIVs.
    if (is_diag_block(bs_, b)) {
      const idx col = static_cast<idx>(b);
      for (i64 e = bs_.blkptr[col]; e < bs_.blkptr[col + 1]; ++e) {
        const block_id bd = bs_.num_block_cols() + e;
        if (ws_.deps[static_cast<std::size_t>(bd)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          ready.push_back(bd);
        }
      }
    }
    push_ready(id, ready);
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        tg_.num_blocks()) {
      queues_.shutdown();
    }
  }

  // A mod whose sources are both complete: push it onto the destination's
  // lock-free ready list (atomic head + per-mod next links — no allocation),
  // and enqueue the destination's drain task if nobody holds it. The
  // release/seq_cst pair with run_dest's retire protocol guarantees every
  // pushed mod is drained by exactly one task.
  void release_mod(i64 m, std::vector<i64>& ready) {
    const block_id d = tg_.mods[static_cast<std::size_t>(m)].dest;
    // Treiber push. relaxed head load + relaxed next store are safe because
    // only the release CAS publishes the node: a drainer that acquires the
    // head sees the next link (sequenced before the CAS), and a failed CAS
    // just retries with the refreshed head value.
    i64 old = ws_.dest_head[static_cast<std::size_t>(d)].load(std::memory_order_relaxed);
    do {
      ws_.mod_next[static_cast<std::size_t>(m)].store(old, std::memory_order_relaxed);
    } while (!ws_.dest_head[static_cast<std::size_t>(d)].compare_exchange_weak(
        old, m, std::memory_order_release, std::memory_order_relaxed));
    if (ws_.dest_state[static_cast<std::size_t>(d)].exchange(
            1, std::memory_order_seq_cst) == 0) {
      ready.push_back(tg_.num_blocks() + d);
    }
  }

  // Drain destination block d: grab its entire ready-mod list, compute every
  // update in scratch (no lock held), and commit to the block under its lock
  // ONCE per batch — a batch of one scatters directly, a larger batch
  // accumulates into a destination-shaped buffer first. Loops until the list
  // stays empty across the state hand-off, so no released mod is stranded.
  void run_dest(int id, block_id d, ParallelWorkspace::WorkerScratch& s,
                ParallelProfile::Worker* pw) {
    const bool diag = is_diag_block(bs_, d);
    T* dest = arena_.block(d);
    const idx rows = tg_.rows_of_block[static_cast<std::size_t>(d)];
    const idx cols =
        bs_.part.width(tg_.col_of_block[static_cast<std::size_t>(d)]);
    i64 processed = 0;
    for (;;) {
      i64 chain = ws_.dest_head[static_cast<std::size_t>(d)].exchange(
          kEmptyList, std::memory_order_acquire);
      if (chain != kEmptyList) {
        // The acquire exchange above synchronizes with every pusher's
        // release CAS, so the relaxed mod_next loads walking the chain see
        // the links (and compute_mod sees the sources' panels).
        i64 cnt = 0;
        for (i64 m = chain; m != kEmptyList;
             m = ws_.mod_next[static_cast<std::size_t>(m)].load(
                 std::memory_order_relaxed)) {
          ++cnt;
        }
        // The batch is *counted* unconditionally (the completion gate below
        // must see every released mod exactly once), but *computed* only
        // while the run is live.
        try {
          if (run_.cancelled()) {
            // drained as a no-op
          } else if (cnt == 1) {
            const T* update = compute_mod(chain, s, pw);
            const auto t0 = pw ? TaskClock::now() : TaskClock::time_point{};
            {
              LockGuard lock(ws_.locks.for_block(d));
              scatter_block_mod(bs_, tg_,
                                tg_.mods[static_cast<std::size_t>(chain)],
                                update, s.rel_rows, dest);
            }
            if (pw) pw->scatter_s += seconds_since(t0);
          } else {
            const auto tz = pw ? TaskClock::now() : TaskClock::time_point{};
            const i64 n = static_cast<i64>(rows) * cols;
            T* accum = s.accum.get<T>(n);
            std::fill(accum, accum + n, T(0));
            if (pw) pw->scatter_s += seconds_since(tz);
            for (i64 m = chain; m != kEmptyList;
                 m = ws_.mod_next[static_cast<std::size_t>(m)].load(
                     std::memory_order_relaxed)) {
              const T* update = compute_mod(m, s, pw);
              const auto t0 = pw ? TaskClock::now() : TaskClock::time_point{};
              scatter_block_mod(bs_, tg_, tg_.mods[static_cast<std::size_t>(m)],
                                update, s.rel_rows, accum);
              if (pw) pw->scatter_s += seconds_since(t0);
            }
            const auto t1 = pw ? TaskClock::now() : TaskClock::time_point{};
            {
              LockGuard lock(ws_.locks.for_block(d));
              apply_accum(dest, accum, rows, cols, diag);
            }
            if (pw) pw->scatter_s += seconds_since(t1);
          }
        } catch (...) {
          run_.fail(std::current_exception());
        }
        processed += cnt;
        if (pw) {
          ++pw->batches;
          pw->mods += cnt;
        }
      }
      // Retire: release the drain flag, then re-check the list. A releaser
      // that saw our flag set has already pushed its mod; whoever wins the
      // flag next (us below, or its exchange) drains it.
      ws_.dest_state[static_cast<std::size_t>(d)].store(0, std::memory_order_seq_cst);
      if (ws_.dest_head[static_cast<std::size_t>(d)].load(
              std::memory_order_seq_cst) == kEmptyList) {
        break;
      }
      if (ws_.dest_state[static_cast<std::size_t>(d)].exchange(
              1, std::memory_order_seq_cst) != 0) {
        break;  // a releaser reclaimed it and enqueued a fresh drain task
      }
    }
    // Count the batch against the destination's completion gate only after
    // every update landed. The acq_rel RMW chain on deps hands our scatter
    // writes to whichever worker runs the completion.
    if (processed > 0 &&
        ws_.deps[static_cast<std::size_t>(d)].fetch_sub(
            processed, std::memory_order_acq_rel) == processed) {
      std::vector<i64>& ready = ws_.scratch[static_cast<std::size_t>(id)].ready;
      ready.clear();
      ready.push_back(d);
      push_ready(id, ready);
    }
  }

  // Computes mod m's update into the worker's scratch and returns it.
  const T* compute_mod(i64 m, ParallelWorkspace::WorkerScratch& s,
                       ParallelProfile::Worker* pw) {
    const BlockMod& mod = tg_.mods[static_cast<std::size_t>(m)];
    T* update = s.update.get<T>(
        static_cast<i64>(tg_.rows_of_block[static_cast<std::size_t>(mod.src_a)]) *
        tg_.rows_of_block[static_cast<std::size_t>(mod.src_b)]);
    const auto t0 = pw ? TaskClock::now() : TaskClock::time_point{};
    compute_block_mod(bs_, tg_, mod, arena_.block(mod.src_a),
                      arena_.block(mod.src_b), update, s.rel_rows);
    if (pw) pw->bmod_compute_s += seconds_since(t0);
    return update;
  }

  // dest += acc, both rows x cols with leading dimension rows; lower
  // triangle only for diagonal blocks (their strict upper part is dead
  // storage). Contiguous adds, so the committed critical section is pure
  // streaming bandwidth.
  static void apply_accum(T* dest, const T* acc, idx rows, idx cols,
                          bool diag) {
    if (diag) {
      for (idx c = 0; c < cols; ++c) {
        const std::size_t off = static_cast<std::size_t>(c) * rows + c;
        for (idx i = 0; i < rows - c; ++i) dest[off + i] += acc[off + i];
      }
    } else {
      const std::size_t n =
          static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
      for (std::size_t i = 0; i < n; ++i) dest[i] += acc[i];
    }
  }

  // Routes a ready batch from worker `id` (or kSeeding): tasks pinned to
  // this worker go onto its private stack (thieves never see them — the
  // frontier steal exclusion), shared tasks onto its public deque. A pinned
  // task released by a NON-owner can only reach another worker's work
  // through a public deque — push() is owner-only at runtime, so the task
  // spills to the releaser's own public deque and is counted. Structurally
  // this does not happen (a below-frontier task's sources live in the same
  // subtree, so its releaser is its owner); the spill path keeps the
  // protocol correct even if a pinned task leaks out via a stolen spill.
  void push_ready(int id, std::vector<i64>& buf) {
    const i64 spills =
        deal(queues_, id, buf, [this](i64 t) { return task_priority(t); },
             [this](i64 t) { return task_owner(t); });
    if (prof_ != nullptr && spills > 0) {
      prof_->workers[static_cast<std::size_t>(id)].affinity_spills += spills;
    }
  }

  const SymSparse& a_;
  const BlockStructure& bs_;
  const TaskGraph& tg_;
  ParallelWorkspace& ws_;
  const FactorArena<T> arena_;
  TaskRun run_;
  bool affinity_;
  WorkStealingQueues queues_;
  ParallelProfile* prof_;
  PivotEnv& pivots_;
  spc::atomic<i64> completed_{0};
};

}  // namespace

template <class T>
BlockFactor block_factorize_parallel(const SymSparse& a, const BlockStructure& bs,
                                     const TaskGraph& tg,
                                     const ParallelFactorOptions& opt,
                                     ParallelWorkspace* ws) {
  const int threads = resolve_threads(opt.num_threads);
  if (opt.info != nullptr) opt.info->reset();
  // Pivots run in deferred (continue) mode: a strict-policy
  // breakdown boosts the failing pivot, records the minimal failing column,
  // and lets the DAG finish, so the reported column matches the sequential
  // engines regardless of task interleaving. A task failure (injected fault,
  // allocation failure, cancellation) takes precedence over the deferred
  // breakdown — it is rethrown from inside run().
  FactorizeOptions fopt;
  fopt.pivot_policy = opt.pivot_policy;
  fopt.pivot_delta = opt.pivot_delta;
  PivotEnv pivots(bs, make_pivot_control(a, fopt), /*deferred=*/true);
  std::unique_ptr<ParallelWorkspace> local;
  if (ws == nullptr) {
    local = std::make_unique<ParallelWorkspace>(bs, tg);
    ws = local.get();
  }
  SPC_CHECK(ws->bs == &bs && ws->tg == &tg,
            "block_factorize_parallel: workspace built for another plan");
  const bool affinity =
      opt.affinity == ParallelFactorOptions::Affinity::kSubtree;
  ws->prepare_run(threads, affinity, opt.budget);
  const bool env_dump = profile_requested();
  ParallelProfile env_profile;
  ParallelProfile* prof =
      opt.profile != nullptr ? opt.profile : env_dump ? &env_profile : nullptr;
  WorkStealingExecutor<T> exec(a, bs, tg, threads, *ws, prof, pivots,
                               opt.cancel, affinity, opt.budget, opt.deadline);
  BlockFactor f;
  try {
    f = exec.run();
  } catch (...) {
    pivots.export_info(opt.info);
    throw;
  }
  if (env_dump) {
    write_profile(prof->workers, [prof](std::FILE* out) {
      std::fprintf(out,
                   "\"parallel_factor\", \"threads\": %d, \"wall_s\": %.6f, "
                   "\"steals\": %lld, \"affinity\": \"%s\"",
                   static_cast<int>(prof->workers.size()), prof->wall_s,
                   static_cast<long long>(prof->steals),
                   prof->affinity ? "subtree" : "none");
    });
  }
  pivots.export_info(opt.info);
  if (pivots.has_breakdown()) pivots.throw_breakdown();
  if (opt.info != nullptr) opt.info->fp32 = std::is_same_v<T, float>;
  return f;
}

template <class T>
i64 estimate_parallel_factor_bytes(const BlockStructure& bs, const TaskGraph& tg,
                                   int num_threads) {
  const BlockArenaLayout layout = compute_block_arena_layout(bs);
  const PlanExtents x = plan_extents(bs, tg);
  // The fp64 factor arena, plus the fp32 one it is promoted from.
  const i64 arena_elem_bytes =
      sizeof(double) + (std::is_same_v<T, float> ? sizeof(float) : 0);
  return layout.total * arena_elem_bytes +
         plan_bytes(tg, x.src_entries, layout) + counter_bytes(tg) +
         resolve_threads(num_threads) *
             worker_scratch_bytes(x.max_update, x.max_block);
}

#define SPC_PARALLEL_INSTANTIATE(T)                                          \
  template BlockFactor block_factorize_parallel<T>(                         \
      const SymSparse&, const BlockStructure&, const TaskGraph&,             \
      const ParallelFactorOptions&, ParallelWorkspace*);                     \
  template i64 estimate_parallel_factor_bytes<T>(const BlockStructure&,     \
                                                 const TaskGraph&, int);
SPC_PARALLEL_INSTANTIATE(double)
SPC_PARALLEL_INSTANTIATE(float)
#undef SPC_PARALLEL_INSTANTIATE

}  // namespace spc
