// Tests for the task runtime shared by the parallel factor and solve
// executors (factor/task_run.hpp): the thread count, the reusable barrier,
// the drain loop's exactly-once execution and first-failure teardown,
// priority-ordered dealing; the SPC_PROFILE=1 JSON record of both
// executors, pinned as a golden skeleton (tags, key order, the total object
// and the workers array, the SPC_PROFILE_OUT redirect, which appends); and
// the governed footprint estimate that registry admission reads, pinned to
// exact byte counts.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "factor/task_run.hpp"
#include "gen/benchmark_suite.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/sync.hpp"

namespace spc {
namespace {

// --- Runtime ---------------------------------------------------------------

TEST(TaskRun, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_EQ(resolve_threads(-2), resolve_threads(0));
}

TEST(TaskRun, BarrierIsReusableAcrossGenerations) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 5;
  TaskRun run(kThreads, nullptr, nullptr, "test", "test cancelled");
  spc::atomic<int> arrived{0};
  spc::atomic<int> errors{0};
  run.run([&](int) {
    for (int phase = 1; phase <= kPhases; ++phase) {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      run.barrier();
      // Nobody may pass a generation before all arrived, nor arrive at the
      // next one before all left this one (the second barrier).
      if (arrived.load(std::memory_order_acquire) != phase * kThreads) {
        errors.fetch_add(1, std::memory_order_acq_rel);
      }
      run.barrier();
    }
  });
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(arrived.load(), kPhases * kThreads);
}

// Drives a run of `n` independent tasks over `threads` workers; `body` sees
// each acquired task id, and the last completion shuts the queues down.
template <class Body>
void drain_tasks(TaskRun& run, int n, const Body& body) {
  WorkStealingQueues q(run.threads());
  std::vector<i64> ready;
  for (i64 t = 0; t < n; ++t) ready.push_back(t);
  deal(q, kSeeding, ready, [](i64 t) { return t; }, Unpinned{});
  spc::atomic<int> left{n};
  run.run([&](int id) {
    run.drain(q, id, nullptr, [&](const WorkItem& item, AcquireSource) {
      body(item.id);
      if (left.fetch_sub(1, std::memory_order_acq_rel) == 1) q.shutdown();
    });
  });
}

TEST(TaskRun, DrainRunsEveryTaskExactlyOnce) {
  constexpr int kTasks = 500;
  std::vector<spc::atomic<int>> seen(kTasks);
  TaskRun run(4, nullptr, nullptr, "test", "test cancelled");
  drain_tasks(run, kTasks, [&](i64 t) {
    seen[static_cast<std::size_t>(t)].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& c : seen) EXPECT_EQ(c.load(), 1);
  EXPECT_FALSE(run.cancelled());
}

TEST(TaskRun, FirstFailureDrainsAndIsRethrown) {
  // Task 199 is the most critical task on worker 1's deque, so worker 1
  // runs it first; every other task waits until it has run. The failure it
  // records must turn every other task into a no-op — and every one must
  // still be drained — and the first failure wins over the later one.
  constexpr int kTasks = 200;
  spc::atomic<int> ran{0};
  spc::atomic<int> computed{0};
  spc::atomic<bool> first_done{false};
  TaskRun run(3, nullptr, nullptr, "test", "test cancelled");
  try {
    drain_tasks(run, kTasks, [&](i64 t) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (t != kTasks - 1) {
        while (!first_done.load(std::memory_order_acquire)) std::this_thread::yield();
      }
      if (run.cancelled()) {
        // drained as a no-op; a later failure is dropped
        if (t == 0) {
          run.fail(std::make_exception_ptr(Error("late", ErrorKind::kInternal)));
        }
        return;
      }
      computed.fetch_add(1, std::memory_order_relaxed);
      run.fail(std::make_exception_ptr(Error("first", ErrorKind::kInjectedFault)));
      first_done.store(true, std::memory_order_release);
    });
    FAIL() << "the recorded failure was not rethrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInjectedFault);
  }
  EXPECT_EQ(ran.load(), kTasks);  // every task still drained
  EXPECT_EQ(computed.load(), 1);
  EXPECT_TRUE(run.cancelled());
}

TEST(TaskRun, CancelTokenTearsDownWithKCancelled) {
  spc::atomic<bool> cancel{false};
  spc::atomic<int> ran{0};
  TaskRun run(2, &cancel, nullptr, "test", "test cancelled");
  try {
    drain_tasks(run, 100, [&](i64 t) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (t == 90) cancel.store(true);
    });
    FAIL() << "cancellation was not reported";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_NE(std::string(e.what()).find("test cancelled"), std::string::npos);
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(TaskRun, BookkeepingThrowShutsTheQueuesDown) {
  TaskRun run(2, nullptr, nullptr, "test", "test cancelled");
  EXPECT_THROW(drain_tasks(run, 50,
                           [&](i64 t) {
                             if (t == 10) throw Error("broken", ErrorKind::kInternal);
                           }),
               Error);
  EXPECT_TRUE(run.cancelled());
}

TEST(TaskRun, DealingOrdersByPriorityAndHonorsPins) {
  // Two workers; even tasks are pinned to worker 1. Seeding from outside
  // the drain loop puts pinned tasks on the owner's private stack.
  WorkStealingQueues q(2);
  std::vector<i64> ready = {4, 1, 0, 3, 2, 5};
  const auto prio = [](i64 t) { return 10 * t; };
  const auto owner = [](i64 t) { return t % 2 == 0 ? 1 : -1; };
  deal(q, kSeeding, ready, prio, owner);
  EXPECT_TRUE(ready.empty());
  WorkItem item;
  AcquireSource src;
  for (i64 want : {4, 2, 0}) {  // most critical first
    ASSERT_TRUE(q.acquire(1, item, &src));
    EXPECT_EQ(item.id, want);
    EXPECT_EQ(item.priority, 10 * want);
    EXPECT_EQ(src, AcquireSource::kPrivate);
  }
  // Released from worker 0: its own pins stay private, a pin of worker 1
  // spills onto worker 0's public deque and is counted.
  std::vector<i64> batch = {6, 7};
  const auto owner0 = [](i64 t) { return t == 6 ? 0 : 1; };
  EXPECT_EQ(deal(q, 0, batch, prio, owner0), 1);
  EXPECT_TRUE(batch.empty());
  ASSERT_TRUE(q.acquire(0, item, &src));
  EXPECT_EQ(item.id, 6);
  EXPECT_EQ(src, AcquireSource::kPrivate);
  q.shutdown();
}

// --- SPC_PROFILE=1 output ----------------------------------------------------

// Every number becomes '#': timings and per-worker splits vary run to run,
// the record's shape does not.
std::string mask_numbers(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size();) {
    const bool sign = s[i] == '-' && i + 1 < s.size() &&
                      std::isdigit(static_cast<unsigned char>(s[i + 1]));
    if (!sign && !std::isdigit(static_cast<unsigned char>(s[i]))) {
      out += s[i++];
      continue;
    }
    ++i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '.' || s[i] == 'e' || s[i] == '+' ||
                            s[i] == '-')) {
      ++i;
    }
    out += '#';
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const char kFactorWorker[] =
    "\"init_s\": #, \"bfac_s\": #, \"bdiv_s\": #, \"bmod_compute_s\": #, "
    "\"scatter_s\": #, \"idle_s\": #, \"bfacs\": #, \"bdivs\": #, "
    "\"mods\": #, \"batches\": #, \"affinity_hits\": #, "
    "\"affinity_spills\": #, \"below_frontier_steals\": #";

const char kSolveWorker[] =
    "\"forward_s\": #, \"backward_s\": #, \"scatter_s\": #, \"idle_s\": #, "
    "\"cols\": #, \"updates\": #";

std::string golden(const std::string& head, const char* worker, int threads) {
  std::string s = "{\"profile\": " + head + ",\n \"total\": {" + worker +
                  "},\n \"workers\": [\n";
  for (int t = 0; t < threads; ++t) {
    s += std::string("  {") + worker + "}" + (t + 1 < threads ? "," : "") + "\n";
  }
  return s + " ]}\n";
}

std::string factor_golden(int threads) {
  return golden(
      "\"parallel_factor\", \"threads\": #, \"wall_s\": #, \"steals\": #, "
      "\"affinity\": \"subtree\"",
      kFactorWorker, threads);
}

std::string solve_golden(int threads) {
  return golden(
      "\"parallel_solve\", \"threads\": #, \"nrhs\": #, \"wall_s\": #, "
      "\"steals\": #",
      kSolveWorker, threads);
}

class ProfileDump : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test and process: ctest runs these tests concurrently.
    path_ = ::testing::TempDir() + "spc_profile_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(getpid()) + ".json";
    std::remove(path_.c_str());
    chol_ = std::make_unique<SparseCholesky>(
        SparseCholesky::analyze(make_grid2d(14, 13)));
  }
  void TearDown() override {
    unsetenv("SPC_PROFILE");
    unsetenv("SPC_PROFILE_OUT");
    std::remove(path_.c_str());
  }

  void factor(int threads) {
    ParallelFactorOptions opt;
    opt.num_threads = threads;
    (void)block_factorize_parallel(chol_->permuted_matrix(), chol_->structure(),
                                   chol_->task_graph(), opt);
  }

  // Records append, so a test that reads one run's records starts from an
  // empty file.
  void truncate() { std::ofstream(path_, std::ios::trunc); }

  void solve(int threads) {
    // The factor run writes its own record first; the solve's follows it.
    BlockFactor f = block_factorize_parallel(
        chol_->permuted_matrix(), chol_->structure(), chol_->task_graph());
    const idx n = chol_->num_rows();
    std::vector<double> x(static_cast<std::size_t>(n) * 3, 1.0);
    SolveOptions opt;
    opt.threads = threads;
    block_solve_panel(f, x.data(), 3, opt);
  }

  std::string path_;
  std::unique_ptr<SparseCholesky> chol_;
};

TEST_F(ProfileDump, FactorRecordKeepsItsShape) {
  setenv("SPC_PROFILE", "1", 1);
  setenv("SPC_PROFILE_OUT", path_.c_str(), 1);
  for (int threads : {1, 2, 3}) {
    truncate();
    factor(threads);
    const std::string got = read_file(path_);
    EXPECT_EQ(mask_numbers(got), factor_golden(threads));
    EXPECT_NE(got.find("\"threads\": " + std::to_string(threads) + ","),
              std::string::npos)
        << got;
  }
}

// A factor followed by a solve leaves both records, in that order.
TEST_F(ProfileDump, SolveRecordKeepsItsShape) {
  setenv("SPC_PROFILE", "1", 1);
  setenv("SPC_PROFILE_OUT", path_.c_str(), 1);
  for (int threads : {1, 2, 3}) {  // 1 = serial panel sweeps, >= 2 = DAG
    truncate();
    solve(threads);
    const std::string got = read_file(path_);
    EXPECT_EQ(mask_numbers(got),
              factor_golden(resolve_threads(0)) + solve_golden(threads));
    EXPECT_NE(got.find("\"threads\": " + std::to_string(threads) + ", " +
                       "\"nrhs\": 3,"),
              std::string::npos)
        << got;
  }
}

TEST_F(ProfileDump, DefaultsToStderr) {
  setenv("SPC_PROFILE", "1", 1);
  ::testing::internal::CaptureStderr();
  factor(2);
  const std::string got = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(mask_numbers(got), factor_golden(2));
}

TEST_F(ProfileDump, OffWhenUnsetOrZero) {
  setenv("SPC_PROFILE_OUT", path_.c_str(), 1);
  factor(2);
  solve(2);
  EXPECT_FALSE(std::ifstream(path_).good());
  setenv("SPC_PROFILE", "0", 1);
  factor(2);
  solve(2);
  EXPECT_FALSE(std::ifstream(path_).good());
}

// The totals are the element-wise sum of the workers: counts are exact, and
// the column/update counts are the solve DAG's size.
TEST_F(ProfileDump, SolveMultiAccumulatesPanels) {
  BlockFactor f = block_factorize_parallel(
      chol_->permuted_matrix(), chol_->structure(), chol_->task_graph());
  const idx n = chol_->num_rows();
  DenseMatrix b(n, 5);
  Rng rng(9);
  for (idx c = 0; c < 5; ++c) {
    for (idx r = 0; r < n; ++r) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  SolveProfile prof;
  SolveOptions opt;
  opt.threads = 2;
  opt.nrhs_block = 2;  // three panels
  opt.profile = &prof;
  block_solve_multi_parallel(f, b, opt);
  const BlockStructure& bs = chol_->structure();
  ASSERT_EQ(prof.workers.size(), 2u);
  const SolveProfile::Worker t = prof.total();
  EXPECT_EQ(t.cols, 3 * 2 * static_cast<i64>(bs.num_block_cols()));
  EXPECT_EQ(t.updates, 3 * 2 * bs.num_entries());
  EXPECT_EQ(prof.workers[0].cols + prof.workers[1].cols, t.cols);
  EXPECT_EQ(prof.nrhs, 5);
}

// --- Governed footprint ------------------------------------------------------

// estimate_parallel_factor_bytes is registry admission's oracle. The fp64
// byte counts were recorded before the workspace and the estimate were
// derived from one sizing function; the derivation must not move them. The
// fp32 counts add the fp32 arena (4 bytes per arena element) that lives
// alongside the promoted fp64 one.
TEST(FactorFootprint, EstimatesArePinned) {
  LpGenOptions lo;
  lo.n = 2000;
  const SymSparse lp = make_lp_normal_equations(lo);
  const SymSparse mesh = make_fem_mesh({});
  const BenchMatrix cm = make_bench_matrix("CUBE30", SuiteScale::kSmall);
  struct Pinned {
    const char* name;
    i64 bytes[3];       // at 1, 2 and 4 threads, fp64
    i64 fp32_bytes[3];  // the same under Precision::kFp32Refine
  };
  const Pinned pinned[] = {
      {"LP2000", {736316, 761956, 813236}, {1025116, 1050756, 1102036}},
      {"mesh", {5348124, 5384988, 5458716}, {7655516, 7692380, 7766108}},
      {"CUBE30", {83164, 93164, 113164}, {111612, 121612, 141612}},
  };
  for (const Pinned& p : pinned) {
    for (const auto precision : {SolverOptions::Precision::kFp64,
                                 SolverOptions::Precision::kFp32Refine}) {
      SolverOptions opt;
      opt.precision = precision;
      const std::string name(p.name);
      const SparseCholesky chol =
          name == "LP2000" ? SparseCholesky::analyze(lp, opt)
          : name == "mesh" ? SparseCholesky::analyze(mesh, opt)
                           : SparseCholesky::analyze_ordered(
                                 cm.matrix, order_bench_matrix(cm), opt);
      const i64* want = precision == SolverOptions::Precision::kFp64
                            ? p.bytes
                            : p.fp32_bytes;
      EXPECT_EQ(chol.estimate_factor_bytes(1), want[0]) << name;
      EXPECT_EQ(chol.estimate_factor_bytes(2), want[1]) << name;
      EXPECT_EQ(chol.estimate_factor_bytes(4), want[2]) << name;
    }
  }
}

}  // namespace
}  // namespace spc
