// The task runtime under the parallel factor and solve executors
// (docs/PARALLEL_EXECUTOR.md, "Runtime").
//
// Both executors run the same data-driven readiness protocol over the
// work-stealing deques of support/work_queue.hpp; they differ only in their
// task bodies. Everything else lives here, once: the thread count, spawning
// and joining the workers, a reusable barrier, first-failure recording with
// drain-as-no-op teardown, the per-worker drain loop with its cancel and
// deadline polls, priority-ordered dealing of ready tasks, and the
// SPC_PROFILE=1 JSON writer. Task bodies are template parameters, so a task
// costs no indirect call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/governor.hpp"
#include "support/sync.hpp"
#include "support/types.hpp"
#include "support/work_queue.hpp"

namespace spc {

using TaskClock = std::chrono::steady_clock;

inline double seconds_since(TaskClock::time_point t0) {
  return std::chrono::duration<double>(TaskClock::now() - t0).count();
}

// Worker count for a requested thread count: <= 0 means the hardware
// concurrency (1 when the platform cannot tell).
int resolve_threads(int requested);

// First-failure record for a parallel run. The first worker to fail claims
// the slot with a single CAS and stores its exception; later failures never
// clobber it. After the workers have joined, first() returns the winning
// exception (joining establishes the happens-before for the payload).
class FailureSlot {
 public:
  // Returns true when this call recorded the first failure.
  bool record(std::exception_ptr e) {
    int expected = 0;
    if (!state_.compare_exchange_strong(expected, 1,
                                        std::memory_order_acq_rel)) {
      return false;
    }
    error_ = std::move(e);
    state_.store(2, std::memory_order_release);
    return true;
  }

  bool failed() const { return state_.load(std::memory_order_acquire) != 0; }

  // The recorded failure; call only after the failing threads joined.
  std::exception_ptr first() const {
    return state_.load(std::memory_order_acquire) == 2 ? error_ : nullptr;
  }

 private:
  spc::atomic<int> state_{0};  // 0 = empty, 1 = claiming, 2 = recorded
  std::exception_ptr error_;
};

// Placement of a task when dealing: the worker it is pinned to, or -1
// (AffinityPartition::kShared) when any worker may run it.
struct Unpinned {
  int operator()(i64 /*task*/) const { return -1; }
};

// `id` for deal() outside the drain loops.
constexpr int kSeeding = -1;

// Deals a ready batch in ascending priority, so every deque (each pops
// LIFO) has its most critical task on top. Empties `ready`.
//
// From outside the drain loops (id == kSeeding: before the workers spawn,
// or while they are all parked at the barrier) any deque may be written:
// pinned tasks go onto their owner's private stack, shared ones round-robin
// over the public deques. From inside worker `id`'s loop only its own deque
// and private stack may be: tasks pinned to `id` go private (thieves never
// see them), all others onto its public deque. Returns how many tasks pinned
// to ANOTHER worker spilled that way.
template <class Prio, class Owner>
i64 deal(WorkStealingQueues& q, int id, std::vector<i64>& ready,
         const Prio& prio, const Owner& owner) {
  std::sort(ready.begin(), ready.end(),
            [&prio](i64 x, i64 y) { return prio(x) < prio(y); });
  i64 spills = 0;
  int shared = 0;
  for (i64 task : ready) {
    const WorkItem item{task, prio(task)};
    const int o = owner(task);
    if (o >= 0 && (id == kSeeding || o == id)) {
      q.push_private(o, item);
    } else if (id == kSeeding) {
      q.push(shared++ % q.num_workers(), item);
    } else {
      spills += o >= 0 ? 1 : 0;
      q.push(id, item);
    }
  }
  ready.clear();
  return spills;
}

// One parallel run: its workers, its barrier, and its failure state.
//
// Failure semantics (docs/ROBUSTNESS.md §3): fail() records the first
// failure and flips the run into drain mode. Task bodies then skip their
// numeric work (cancelled()) but still perform every dependency decrement,
// so the DAG terminates through its normal completion path, every worker
// joins, and run() rethrows the first failure. Cancellation and deadline
// breaches take the same path.
class TaskRun {
 public:
  // `phase` names the run in deadline errors ("factorize", "solve");
  // `cancel_message` is the kCancelled error's text.
  TaskRun(int threads, const spc::atomic<bool>* cancel,
          const governor::Deadline* deadline, const char* phase,
          const char* cancel_message)
      : threads_(threads),
        cancel_(cancel),
        deadline_(deadline),
        phase_(phase),
        cancel_message_(cancel_message),
        barrier_remaining_(threads) {}

  int threads() const { return threads_; }

  // Runs body(id) on threads() fresh workers, joins them all, then
  // rethrows the first recorded failure.
  template <class Body>
  void run(const Body& body) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([&body, t] { body(t); });
    }
    for (std::thread& w : workers) w.join();
    if (std::exception_ptr e = slot_.first()) std::rethrow_exception(e);
  }

  // Reusable counting barrier: each arrival waits until all threads() of
  // its generation have arrived; the last one re-arms it for the next.
  void barrier();

  // Records the failure (first one wins, later ones are dropped) and flips
  // the run into drain mode. Deliberately does NOT shut the queues
  // down: the outstanding tasks drain as no-ops through the normal
  // completion protocol, which is what leaves the workspaces reusable.
  void fail(std::exception_ptr e) {
    slot_.record(std::move(e));
    cancelled_.store(true, std::memory_order_release);
  }

  // True once any failure (or cancellation, or deadline breach) was
  // recorded: task bodies skip their numeric work from then on.
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  // Worker `id`'s drain loop over `q`: polls cancellation and the deadline,
  // acquires the next task (the time spent there, when `idle_s` is
  // non-null, is added to it), and runs task(item, source) until q shuts
  // down. A throw out of `task` means the bookkeeping itself broke (task
  // bodies catch their numeric failures), so the loop records it and forces
  // q down to guarantee the join.
  template <class Task>
  void drain(WorkStealingQueues& q, int id, double* idle_s, const Task& task) {
    // Amortized deadline polling: a clock read only every few tasks when
    // far from expiry, every task inside the near window, so the overshoot
    // is bounded by one task's duration.
    governor::DeadlinePoller deadline_poll(deadline_);
    WorkItem item;
    for (;;) {
      poll(deadline_poll);
      const auto ti = idle_s != nullptr ? TaskClock::now() : TaskClock::time_point{};
      AcquireSource src = AcquireSource::kOwn;
      const bool got = q.acquire(id, item, &src);
      if (idle_s != nullptr) *idle_s += seconds_since(ti);
      if (!got) return;
      try {
        task(item, src);
      } catch (...) {
        fail(std::current_exception());
        q.shutdown();
        return;
      }
    }
  }

 private:
  // The cancel token and deadline checks made before every acquire.
  void poll(governor::DeadlinePoller& deadline_poll);

  const int threads_;
  const spc::atomic<bool>* cancel_;
  const governor::Deadline* deadline_;
  const char* phase_;
  const char* cancel_message_;
  Mutex barrier_mutex_;
  CondVar barrier_cv_;
  int barrier_remaining_ SPC_GUARDED_BY(barrier_mutex_);
  i64 barrier_generation_ SPC_GUARDED_BY(barrier_mutex_) = 0;
  FailureSlot slot_;
  spc::atomic<bool> cancelled_{false};
};

// --- SPC_PROFILE=1 -----------------------------------------------------------
//
// A profile's per-worker record lists its fields once, in a static
// `fields(f)` that calls f(name, member pointer) per field; that list drives
// the element-wise sums and the JSON below.

// True when the environment sets SPC_PROFILE to anything but "" or "0".
bool profile_requested();

// into += from, field by field.
template <class Worker>
void add_fields(Worker& into, const Worker& from) {
  Worker::fields([&](const char*, auto member) { into.*member += from.*member; });
}

template <class Worker>
Worker sum_fields(const std::vector<Worker>& workers) {
  Worker total;
  for (const Worker& w : workers) add_fields(total, w);
  return total;
}

template <class Worker>
void write_profile_fields(std::FILE* f, const Worker& w) {
  const char* sep = "";
  Worker::fields([&](const char* name, auto member) {
    if constexpr (std::is_same_v<decltype(w.*member), const double&>) {
      std::fprintf(f, "%s\"%s\": %.6f", sep, name, w.*member);
    } else {
      std::fprintf(f, "%s\"%s\": %lld", sep, name,
                   static_cast<long long>(w.*member));
    }
    sep = ", ";
  });
}

// Appends one profile record to $SPC_PROFILE_OUT when set and writable,
// else writes it to stderr:
//   {"profile": <head>,\n "total": {<fields>},\n "workers": [\n  {...},\n ...]}
// where head(f) prints the record's tag and run-level keys.
template <class Worker, class Head>
void write_profile(const std::vector<Worker>& workers, const Head& head) {
  const char* path = std::getenv("SPC_PROFILE_OUT");
  std::FILE* out = path != nullptr ? std::fopen(path, "a") : nullptr;
  std::FILE* f = out != nullptr ? out : stderr;
  std::fprintf(f, "{\"profile\": ");
  head(f);
  std::fprintf(f, ",\n \"total\": {");
  write_profile_fields(f, sum_fields(workers));
  std::fprintf(f, "},\n \"workers\": [\n");
  for (std::size_t i = 0; i < workers.size(); ++i) {
    std::fprintf(f, "  {");
    write_profile_fields(f, workers[i]);
    std::fprintf(f, "}%s\n", i + 1 < workers.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  if (out != nullptr) std::fclose(out);
}

}  // namespace spc
