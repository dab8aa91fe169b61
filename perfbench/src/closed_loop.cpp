// lp_oneshot and cube_refactor: one client, one request at a time.
//
//   lp_oneshot     the CLI-shaped request, a new LP10000 each time:
//                  analyze (MMD) -> factorize_parallel -> solve(b). Ordering
//                  and graph shuffling dominate; the numeric layers are a
//                  few percent.
//   cube_refactor  CUBE30 with the paper's geometric nested dissection,
//                  computed once in setup; each round is a new value set on
//                  the same pattern -> analyze_ordered -> factorize_parallel
//                  -> solve_multi of 16 RHS. The numeric factor dominates.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "factor/residual.hpp"
#include "gen/benchmark_suite.hpp"
#include "gen/lp_gen.hpp"
#include "graph/matrix_market.hpp"
#include "layers.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using spc::DenseMatrix;
using spc::SparseCholesky;
using spc::SymSparse;

constexpr int kSetupReps = 5;
constexpr int kMinRequests = 5;

struct Problem {
  bool cube = false;
  int threads = 1;
  spc::BenchMatrix m;      // request 0's matrix (CUBE30: the base value set)
  spc::LpGenOptions lp;    // lp_oneshot: the generator, seeded per request
  Entries entries;         // cube: the pattern, for the per-round value sets
  std::vector<idx> perm;   // cube: the cached ordering (new->old), set up
  DenseMatrix b;           // right-hand sides, n x (1 | 16)
  std::uint64_t seed = 0;

  const std::vector<idx>* ordering() const { return cube ? &perm : nullptr; }
  SolveMode mode() const { return cube ? SolveMode::kMulti : SolveMode::kPlain; }
  // Request k's matrix, generated untimed. lp_oneshot: every request is a
  // new LP drawn from the seed, request 0 with LpGen seed --seed (11, the
  // generator's default, gives LP10000 nnz(L) = 1936643). cube_refactor: a
  // new value set on the fixed grid per round; a diagonal shift in
  // [0.1, 1.1) keeps A SPD.
  SymSparse round_matrix(i64 k) const {
    const std::uint64_t draw = seed * 1000003 + static_cast<std::uint64_t>(k);
    if (!cube) {
      spc::LpGenOptions o = lp;
      o.seed = k == 0 ? seed : draw;
      return spc::make_lp_normal_equations(o);
    }
    spc::Rng rng(draw);
    return with_diag_shift(entries, 0.1 + rng.uniform());
  }
};

// The inputs: generated, not timed.
Problem make_problem(const Args& args) {
  Problem p;
  p.seed = args.seed;
  p.threads = nproc();
  p.cube = args.workload == "cube_refactor";
  idx nrhs = 1;
  if (p.cube) {
    p.m = spc::make_bench_matrix(
        "CUBE30", args.tiny ? spc::SuiteScale::kSmall : spc::SuiteScale::kFull);
    nrhs = 16;
  } else {
    spc::LpGenOptions& o = p.lp;  // LP10000, as in bench/parallel_scaling
    o.n = args.tiny ? 600 : 10000;
    o.mean_overlap = args.tiny ? 20 : 200;
    o.hubs = args.tiny ? 4 : 80;
    o.hub_span = 0.05;
    p.m.name = "LP" + std::to_string(o.n);
    p.m.matrix = p.round_matrix(0);
  }
  if (p.cube) p.entries = entries_of(p.m.matrix);
  const idx n = p.m.matrix.num_rows();
  p.b = DenseMatrix(n, nrhs);
  for (idx c = 0; c < nrhs; ++c) {
    const std::vector<double> col = make_rhs(n, args.seed * 7919 + static_cast<std::uint64_t>(c));
    std::copy(col.begin(), col.end(), p.b.col(c));
  }
  return p;
}

// Layers each workload's request path does not call; their per-layer
// numbers come from a standalone call on the workload's inputs.
std::string off_path_note(const Problem& p, const std::string& metric) {
  if (metric.rfind("server.", 0) == 0 || metric.rfind("loadgen.", 0) == 0) {
    return "off path: one burst through an in-process Server";
  }
  if (p.cube && metric == "graph.pattern_s") return "off path: SymSparse::pattern() alone";
  if (p.cube && metric == "ordering.order_s") return "cached ordering copied in";
  if (!p.cube && (metric == "solve.panel16_s" || metric == "solve.idle_frac" ||
                  metric == "solve.rhs16_ms")) {
    return "off path: warm-facade probe";
  }
  return "";
}

int run_untraced(const Args& args, const Problem& p, const std::vector<double>& setup) {
  std::vector<double> tts, refactor, rss_mb;
  i64 attempted = 0, failed = 0;
  double worst = 0;
  const Clock::time_point start = Clock::now();
  while (attempted < kMinRequests ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const SymSparse a = p.round_matrix(attempted);
    DenseMatrix x = p.b;
    // The request's peak: its inputs held plus its working set.
    reset_peak_rss();
    const RequestTiming t = facade_request(a, p.ordering(), p.threads, p.mode(), x);
    rss_mb.push_back(peak_rss_mb());
    const double res = spc::solve_residual_multi(a, x, p.b);
    worst = std::max(worst, res);
    ++attempted;
    if (!(res <= kResidualTol)) {
      ++failed;
      continue;  // a wrong answer misses every latency limit
    }
    tts.push_back(t.tts_s);
    refactor.push_back(t.refactor_s);
  }
  // Failed requests count as infinitely slow in the percentiles.
  std::vector<double> tts_all = tts;
  tts_all.resize(static_cast<std::size_t>(attempted), INFINITY);

  Report rep;
  const i64 n = attempted;
  rep.add("tts_p50_ms", 1e3 * percentile(tts_all, 0.5), "ms", n);
  rep.add("tts_p99_ms", 1e3 * percentile(tts_all, 0.99), "ms", n,
          "closed loop: near the max; printed only", /*in_result=*/false);
  rep.add("refactor_p50_ms", 1e3 * median(refactor), "ms",
          static_cast<i64>(refactor.size()), "analyze + factorize");
  rep.add("setup_s", median(setup), "s", kSetupReps,
          p.cube ? "nested dissection + first round" : "read_matrix_market of the request");
  rep.add("peak_rss_mb", median(rss_mb), "MB", n, "per request: its inputs + working set");
  char note[96];
  std::snprintf(note, sizeof(note), "worst relative residual %.3g (limit %.1g)",
                worst, kResidualTol);
  rep.add("failed_frac", static_cast<double>(failed) / static_cast<double>(n), "frac", n,
          note, /*in_result=*/false);
  rep.print_table(args.workload + " end-to-end");
  rep.print_result(failed == 0, attempted, failed);
  return 0;
}

int run_traced(const Args& args, const Problem& p) {
  // Untraced facade requests and traced replays alternate, so drift on the
  // host hits both sides alike.
  Tracer tr;
  LayerSamples ls;
  std::vector<double> plain_tts;
  i64 attempted = 0, failed = 0;
  std::optional<SparseCholesky> facade;
  std::string mismatch;
  const Clock::time_point start = Clock::now();
  for (i64 k = 0; k < 3 || seconds_between(start, Clock::now()) < args.seconds; ++k) {
    const SymSparse a = p.round_matrix(k);
    DenseMatrix x = p.b;
    const RequestTiming t =
        facade_request(a, p.ordering(), p.threads, p.mode(), x, &facade);
    DenseMatrix y = p.b;
    const ReplayResult r = replay_request(a, p.ordering(), p.threads, p.mode(), y, tr, k);
    attempted += 2;
    const bool ok_x = spc::solve_residual_multi(a, x, p.b) <= kResidualTol;
    const bool ok_y = spc::solve_residual_multi(a, y, p.b) <= kResidualTol;
    failed += (ok_x ? 0 : 1) + (ok_y ? 0 : 1);
    // The replay must be the facade's computation, not an approximation.
    if (r.perm != facade->ordering() || r.factor_nnz != facade->factor_nnz_exact() ||
        r.factor_flops != facade->factor_flops_exact()) {
      mismatch = "replay ordering or nnz(L) differs from SparseCholesky";
      ++failed;
    }
    plain_tts.push_back(t.tts_s);
    ls.add(tr, k, r);
    if (k == 0) {
      std::printf("# replay of request 0: nnz(L) %lld, ordering %s the facade's\n",
                  static_cast<long long>(r.factor_nnz),
                  r.perm == facade->ordering() ? "matches" : "DIFFERS from");
    }
  }

  // Layer probes on the first request's inputs.
  const SymSparse a = p.round_matrix(0);
  if (p.cube) {
    const Clock::time_point t0 = Clock::now();
    const spc::Graph g = a.pattern();
    ls.set("graph.pattern", seconds_between(t0, Clock::now()));
  }
  SparseCholesky chol = p.cube ? SparseCholesky::analyze_ordered(a, p.perm)
                               : SparseCholesky::analyze(a);
  const FactorProbe fp = probe_factor(chol, p.threads);
  const SolveProbe sp = probe_solve(chol, p.threads, args.seed);
  const ServerProbe srv = probe_server(a, p.threads, 32, args.seed);
  attempted += 1;
  if (!srv.ok) ++failed;

  Report rep;
  ls.report(rep, [&](const std::string& metric) { return off_path_note(p, metric); });
  rep.add("factor.serial_s", fp.serial_s, "s", 1);
  rep.add("factor.workspace_s", fp.workspace_s, "s", 1, "first call minus steady call");
  rep.add("solve.panel16_s", sp.panel16_s, "s", 3, off_path_note(p, "solve.panel16_s"));
  rep.add("solve.idle_frac", sp.idle_frac, "frac", 3, off_path_note(p, "solve.idle_frac"));
  rep.add("solve.rhs1_ms", sp.rhs1_ms, "ms", 5);
  rep.add("solve.rhs16_ms", sp.rhs16_ms, "ms", 5, off_path_note(p, "solve.rhs16_ms"));
  const std::string srv_note = off_path_note(p, "server.");
  rep.add("server.admit_us", srv.admit_us, "us", 32, srv_note);
  rep.add("server.batch_cols_mean", srv.batch_cols_mean, "cols", 1, srv_note);
  rep.add("server.batches", srv.batches, "count", 1, srv_note);
  rep.add("server.evictions", srv.evictions, "count", 1, srv_note);
  rep.add("server.registry_peak_mb", srv.registry_peak_mb, "MB", 1, srv_note);
  rep.add("loadgen.late_p99_ms", srv.late_p99_ms, "ms", 32, srv_note);
  rep.add("governor.peak_mb", fp.budget_peak_mb, "MB", 1);
  rep.add("trace.overhead_ms", 1e3 * (ls.tts_p50_s() - median(plain_tts)), "ms", ls.count(),
          "traced replay p50 minus untraced facade p50");
  rep.add("trace.coverage", ls.coverage_p50(), "frac", ls.count(),
          "share of the traced request inside layer spans");
  rep.print_table(args.workload + " per-layer (traced)" +
                  (mismatch.empty() ? "" : "; " + mismatch));
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!tr.write_chrome(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# chrome trace: %s\n", path.c_str());
  }
  rep.print_result(failed == 0, attempted, failed);
  return 0;
}

// Set-up is the program's work before the request loop, timed kSetupReps
// times. A one-shot CLI request starts by reading its matrix:
// read_matrix_market on the request's Matrix Market text, written
// beforehand. A refactor service computes the nested dissection once and
// factors its base value set before the per-round traffic starts.
std::vector<double> time_setup(Problem& p) {
  std::string mtx;
  if (!p.cube) {
    std::ostringstream out;
    spc::write_matrix_market(out, p.m.matrix);
    mtx = out.str();
  }
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    std::istringstream in(mtx);
    const Clock::time_point t0 = Clock::now();
    if (p.cube) {
      p.perm = spc::order_bench_matrix(p.m);
      DenseMatrix x = p.b;
      facade_request(p.m.matrix, p.ordering(), p.threads, p.mode(), x);
    } else {
      const SymSparse read = spc::read_matrix_market(in);
      if (read.nnz_lower() != p.m.matrix.nnz_lower()) {
        throw std::runtime_error("read_matrix_market lost entries");
      }
    }
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  return setup;
}

}  // namespace

int run_closed_loop(const Args& args) {
  Problem p = make_problem(args);
  const std::vector<double> setup = time_setup(p);
  return args.trace ? run_traced(args, p) : run_untraced(args, p, setup);
}

}  // namespace pb
