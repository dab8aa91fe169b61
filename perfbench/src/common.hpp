// Shared pieces of the end-to-end benchmark: arguments, timing, order
// statistics, the metric report, span tracing and input helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;
using spc::i64;
using spc::idx;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Relative residual limit for every answer.
constexpr double kResidualTol = 1e-9;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;      // smoke-test sizes
  std::string trace_dir;  // where --trace 1 writes Chrome trace JSON
};

// CPUs this process may run on; factor and solve use this many threads.
int nproc();

// Linear-interpolated order statistic (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// Returns freed heap to the kernel and restarts the peak resident-set count
// at the current resident set, so memory freed before no longer counts. Throws where the kernel
// lacks /proc/self/clear_refs.
void reset_peak_rss();
// Peak resident set since the last reset (VmHWM), MB.
double peak_rss_mb();

// Metrics in print order. Each carries its sample count so the table shows
// what a percentile rests on.
class Report {
 public:
  // `in_result` false keeps a metric in the table but off the result line.
  void add(const std::string& name, double value, const std::string& unit,
           i64 samples, const std::string& note = "", bool in_result = true);
  // Human-readable table on stdout, one metric per line.
  void print_table(const std::string& title) const;
  // The result line: {"correct", "attempted", "failed", "metrics"}.
  void print_result(bool correct, i64 attempted, i64 failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    i64 samples;
    std::string note;
    bool in_result;
  };
  std::vector<Metric> metrics_;
};

// Spans recorded from outside the library, around calls into each module's
// public functions. Single-threaded: the parent of a span is the span open
// when it starts. Spans of one request share its id.
class Tracer {
 public:
  Tracer();

  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t index_;
  };

  Scope span(const char* name) { return Scope(this, name); }
  void begin_request(i64 id) { request_ = id; }

  // Sum of the durations of spans named `name` in request `id`.
  double total_s(i64 id, const std::string& name) const;
  // Sum of the durations of top-level spans (no parent) in request `id`.
  double covered_s(i64 id) const;
  // Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    i64 request = -1;
    long parent = -1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  i64 request_ = -1;
};

// The entries of a SymSparse in SymSparse::from_entries form, so new value
// sets on the same pattern can be built cheaply.
struct Entries {
  idx n = 0;
  std::vector<double> diag;
  std::vector<std::pair<idx, idx>> pos;
  std::vector<double> val;
};
Entries entries_of(const spc::SymSparse& a);
// Same pattern and off-diagonal values; every diagonal entry shifted by
// `shift` (> 0 keeps an SPD matrix SPD).
spc::SymSparse with_diag_shift(const Entries& e, double shift);

// Deterministic right-hand side in [-1, 1).
std::vector<double> make_rhs(idx n, std::uint64_t seed);

// Host and build record printed with every result.
std::string host_record_json(const Args& args, const std::string& threads_json);
// False for any build other than an NDEBUG Release build.
bool release_build();

}  // namespace pb
