#include "factor/task_run.hpp"

#include <cstdlib>

#include "support/error.hpp"

namespace spc {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void TaskRun::barrier() {
  LockGuard lock(barrier_mutex_);
  if (--barrier_remaining_ == 0) {
    barrier_remaining_ = threads_;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    const i64 gen = barrier_generation_;
    while (barrier_generation_ == gen) barrier_cv_.wait(barrier_mutex_);
  }
}

void TaskRun::poll(governor::DeadlinePoller& deadline_poll) {
  // relaxed polls: cancellation is advisory — a worker that misses the flag
  // for one iteration just runs one more task; fail() does the synchronized
  // first-failure recording.
  if (cancel_ != nullptr && !cancelled_.load(std::memory_order_relaxed) &&
      cancel_->load(std::memory_order_relaxed)) {
    fail(std::make_exception_ptr(Error(cancel_message_, ErrorKind::kCancelled)));
  }
  // A deadline breach tears down exactly like cancellation: record the
  // failure, then keep draining the DAG as no-ops. (relaxed guard: same
  // advisory pattern as the cancel poll above.)
  if (deadline_ != nullptr && !cancelled_.load(std::memory_order_relaxed)) {
    try {
      deadline_poll.poll(phase_);
    } catch (...) {
      fail(std::current_exception());
    }
  }
}

bool profile_requested() {
  const char* env = std::getenv("SPC_PROFILE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

}  // namespace spc
