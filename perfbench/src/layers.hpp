// One request through the facade, the same request replayed through each
// module's public functions with a span around every call, and the probes
// that time single layers on a warm facade.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "common.hpp"
#include "factor/parallel_factor.hpp"

namespace pb {

enum class SolveMode {
  kNone,   // refactor only: analyze + factorize
  kPlain,  // SparseCholesky::solve(b), one right-hand side
  kMulti,  // SparseCholesky::solve_multi at `threads` threads
};

struct RequestTiming {
  double refactor_s = 0;  // analyze + factorize
  double tts_s = 0;       // + solve
};

// The facade path. `perm` null = MMD inside analyze(), else analyze_ordered
// with that ordering. `x` holds the right-hand sides on entry (column 0 for
// kPlain) and the solution on return. `keep`, when non-null, receives the
// solver.
RequestTiming facade_request(const spc::SymSparse& a, const std::vector<idx>* perm,
                             int threads, SolveMode mode, spc::DenseMatrix& x,
                             std::optional<spc::SparseCholesky>* keep = nullptr);

struct ReplayResult {
  std::vector<idx> perm;  // final new->old, as SparseCholesky::ordering()
  i64 factor_nnz = 0;
  i64 factor_flops = 0;
  spc::ParallelProfile factor_profile;
  double tts_s = 0;
};

// The facade path replayed call by call under `tr` (request id `id`).
ReplayResult replay_request(const spc::SymSparse& a, const std::vector<idx>* perm,
                            int threads, SolveMode mode, spc::DenseMatrix& x,
                            Tracer& tr, i64 id);

// Per-request layer times and factor counters of traced replays, reported
// as medians over the replays.
class LayerSamples {
 public:
  // Records replay `r`, traced under `tr` as request `id`.
  void add(const Tracer& tr, i64 id, const ReplayResult& r);
  // Replaces a layer's samples by a standalone measurement.
  void set(const std::string& span, double seconds) { layer_[span] = {seconds}; }
  // Adds the span-timed layers and the factor counters; `note` labels each
  // metric (e.g. "off path").
  void report(Report& rep, const std::function<std::string(const std::string&)>& note) const;
  i64 count() const { return static_cast<i64>(tts_.size()); }
  double tts_p50_s() const { return median(tts_); }
  double coverage_p50() const { return median(coverage_); }

 private:
  std::map<std::string, std::vector<double>> layer_;
  std::vector<double> gflops_, idle_, scatter_, steals_, tts_, coverage_;
};

struct FactorProbe {
  double serial_s = 0;     // SparseCholesky::factorize(), the 1-thread engine
  double workspace_s = 0;  // first factorize_parallel minus the steady call
  double budget_peak_mb = 0;
};
// `chol` must be analyzed and not yet factorized.
FactorProbe probe_factor(spc::SparseCholesky& chol, int threads);

struct SolveProbe {
  double rhs1_ms = 0;    // warm solve, one RHS, 1 thread (the server's setting)
  double rhs16_ms = 0;   // warm 16-RHS panel, 1 thread
  double panel16_s = 0;  // warm 16-RHS panel at `threads`
  double idle_frac = 0;  // scheduler share of the threaded panel
};
SolveProbe probe_solve(const spc::SparseCholesky& chol, int threads,
                       std::uint64_t seed);

}  // namespace pb
