#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "blocks/block_structure.hpp"
#include "blocks/blocking.hpp"
#include "blocks/task_graph.hpp"
#include "factor/block_solve.hpp"
#include "factor/parallel_solve.hpp"
#include "graph/permutation.hpp"
#include "ordering/mmd.hpp"
#include "support/governor.hpp"
#include "symbolic/amalgamate.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"
#include "symbolic/supernode.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace pb {

using spc::DenseMatrix;
using spc::SparseCholesky;
using spc::SymSparse;

RequestTiming facade_request(const SymSparse& a, const std::vector<idx>* perm,
                             int threads, SolveMode mode, DenseMatrix& x,
                             std::optional<SparseCholesky>* keep) {
  std::vector<double> b;
  if (mode == SolveMode::kPlain) b.assign(x.col(0), x.col(0) + x.rows());
  RequestTiming t;
  const Clock::time_point t0 = Clock::now();
  SparseCholesky chol = perm == nullptr ? SparseCholesky::analyze(a)
                                        : SparseCholesky::analyze_ordered(a, *perm);
  chol.factorize_parallel(threads);
  const Clock::time_point t1 = Clock::now();
  if (mode == SolveMode::kPlain) {
    const std::vector<double> sol = chol.solve(b);
    std::copy(sol.begin(), sol.end(), x.col(0));
  } else if (mode == SolveMode::kMulti) {
    spc::SolveOptions so;
    so.threads = threads;
    chol.solve_multi(x, so);
  }
  const Clock::time_point t2 = Clock::now();
  t.refactor_s = seconds_between(t0, t1);
  t.tts_s = seconds_between(t0, t2);
  if (keep != nullptr) keep->emplace(std::move(chol));
  return t;
}

ReplayResult replay_request(const SymSparse& a, const std::vector<idx>* perm_in,
                            int threads, SolveMode mode, DenseMatrix& x,
                            Tracer& tr, i64 id) {
  // The calls and their order are those of SparseCholesky::analyze /
  // analyze_ordered, factorize_parallel, solve and solve_multi with default
  // SolverOptions.
  const spc::SolverOptions opt;
  const idx n = a.num_rows();
  std::vector<double> b;
  if (mode == SolveMode::kPlain) b.assign(x.col(0), x.col(0) + n);
  ReplayResult r;
  tr.begin_request(id);
  const Clock::time_point t0 = Clock::now();

  std::vector<idx> perm;
  if (perm_in == nullptr) {
    spc::Graph g;
    {
      auto s = tr.span("graph.pattern");
      g = a.pattern();
    }
    auto s = tr.span("ordering.order");
    perm = spc::mmd_order(g);
  } else {
    auto s = tr.span("ordering.order");  // the cached ordering, copied in
    perm = *perm_in;
  }
  SymSparse a1;
  {
    auto s = tr.span("graph.permute");
    a1 = a.permuted(perm);
  }
  std::vector<idx> parent1, post;
  {
    auto s = tr.span("symbolic.etree");
    parent1 = spc::elimination_tree(a1);
    post = spc::etree_postorder(parent1);
  }
  SymSparse a_perm;
  {
    auto s = tr.span("graph.permute");
    r.perm = spc::compose_permutations(perm, post);
    a_perm = a1.permuted(post);
  }
  std::vector<idx> parent;
  {
    auto s = tr.span("symbolic.etree");
    parent = spc::relabel_parent(parent1, post);
  }
  std::vector<i64> counts;
  {
    auto s = tr.span("symbolic.colcount");
    counts = spc::factor_col_counts(a_perm, parent);
    r.factor_nnz = spc::factor_nnz(counts);
    r.factor_flops = spc::factor_flops(counts);
  }
  spc::SupernodePartition sn;
  {
    auto s = tr.span("symbolic.supernode");
    sn = spc::find_supernodes(parent, counts);
    if (opt.amalgamate) {
      sn = spc::amalgamate_supernodes(sn, parent, counts, opt.amalgamation);
    }
  }
  spc::SymbolicFactor sf;
  {
    auto s = tr.span("symbolic.factor");
    sf = spc::symbolic_factorize(a_perm, parent, sn);
  }
  spc::BlockStructure bs;
  {
    auto s = tr.span("blocks.structure");
    bs = spc::build_block_structure(sf, spc::make_blocking(sf, opt.blocking_options()));
  }
  spc::TaskGraph tg;
  {
    auto s = tr.span("blocks.task_graph");
    tg = spc::build_task_graph(bs);
  }
  std::unique_ptr<spc::ParallelWorkspace> ws;
  std::shared_ptr<spc::governor::MemoryBudget> budget;
  {
    auto s = tr.span("factor.workspace");
    budget = std::make_shared<spc::governor::MemoryBudget>(opt.mem_budget_bytes);
    ws = std::make_unique<spc::ParallelWorkspace>(bs, tg);
  }
  spc::BlockFactor f;
  {
    auto s = tr.span("factor.numeric");
    spc::FactorizeInfo info;
    spc::ParallelFactorOptions fo;
    fo.num_threads = threads;
    fo.pivot_policy = opt.pivot_policy;
    fo.pivot_delta = opt.pivot_delta;
    fo.info = &info;
    fo.budget = budget;
    fo.profile = &r.factor_profile;
    f = spc::block_factorize_parallel(a_perm, bs, tg, fo, ws.get());
  }
  if (mode == SolveMode::kPlain) {
    auto s = tr.span("solve.sweep");
    std::vector<double> pb(static_cast<std::size_t>(n));
    for (idx k = 0; k < n; ++k) pb[static_cast<std::size_t>(k)] = b[r.perm[k]];
    const std::vector<double> px = spc::block_solve(f, pb);
    double* out = x.col(0);
    for (idx k = 0; k < n; ++k) out[r.perm[k]] = px[static_cast<std::size_t>(k)];
  } else if (mode == SolveMode::kMulti) {
    std::unique_ptr<spc::SolveWorkspace> sws;
    {
      auto s = tr.span("solve.workspace");
      sws = std::make_unique<spc::SolveWorkspace>(bs);
    }
    auto s = tr.span("solve.sweep");
    DenseMatrix staged(n, x.cols());
    for (idx c = 0; c < x.cols(); ++c) {
      for (idx k = 0; k < n; ++k) staged(k, c) = x(r.perm[k], c);
    }
    spc::SolveOptions so;
    so.threads = threads;
    so.budget = budget;
    spc::block_solve_multi_parallel(f, staged, so, sws.get());
    for (idx c = 0; c < x.cols(); ++c) {
      for (idx k = 0; k < n; ++k) x(r.perm[k], c) = staged(k, c);
    }
  }
  r.tts_s = seconds_between(t0, Clock::now());
  return r;
}

namespace {
// Span name -> per-layer metric.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"graph.pattern", "graph.pattern_s"},
    {"graph.permute", "graph.permute_s"},
    {"ordering.order", "ordering.order_s"},
    {"symbolic.etree", "symbolic.etree_s"},
    {"symbolic.colcount", "symbolic.colcount_s"},
    {"symbolic.supernode", "symbolic.supernode_s"},
    {"symbolic.factor", "symbolic.factor_s"},
    {"blocks.structure", "blocks.structure_s"},
    {"blocks.task_graph", "blocks.task_graph_s"},
    {"factor.numeric", "factor.numeric_s"},
};
}  // namespace

void LayerSamples::add(const Tracer& tr, i64 id, const ReplayResult& r) {
  for (const auto& [span, metric] : kLayerMetrics) {
    layer_[span].push_back(tr.total_s(id, span));
  }
  const spc::ParallelProfile& prof = r.factor_profile;
  const double cap = prof.wall_s * static_cast<double>(prof.workers.size());
  gflops_.push_back(static_cast<double>(r.factor_flops) / tr.total_s(id, "factor.numeric") /
                    1e9);
  idle_.push_back(cap > 0 ? prof.total().idle_s / cap : 0);
  scatter_.push_back(cap > 0 ? prof.total().scatter_s / cap : 0);
  steals_.push_back(static_cast<double>(prof.steals));
  tts_.push_back(r.tts_s);
  coverage_.push_back(tr.covered_s(id) / r.tts_s);
}

void LayerSamples::report(Report& rep,
                          const std::function<std::string(const std::string&)>& note) const {
  for (const auto& [span, metric] : kLayerMetrics) {
    const std::vector<double>& v = layer_.at(span);
    rep.add(metric, median(v), "s", static_cast<i64>(v.size()), note(metric));
  }
  rep.add("factor.gflops", median(gflops_), "GFLOP/s", count(), note("factor.gflops"));
  rep.add("factor.idle_frac", median(idle_), "frac", count(), note("factor.idle_frac"));
  rep.add("factor.scatter_frac", median(scatter_), "frac", count(),
          note("factor.scatter_frac"));
  rep.add("factor.steals", median(steals_), "count", count(), note("factor.steals"));
}

FactorProbe probe_factor(SparseCholesky& chol, int threads) {
  FactorProbe p;
  Clock::time_point t0 = Clock::now();
  chol.factorize();
  p.serial_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  chol.factorize_parallel(threads);  // builds the cached workspace
  const double first = seconds_between(t0, Clock::now());
  std::vector<double> steady;
  for (int i = 0; i < 3; ++i) {
    t0 = Clock::now();
    chol.factorize_parallel(threads);
    steady.push_back(seconds_between(t0, Clock::now()));
  }
  p.workspace_s = first - median(steady);
  p.budget_peak_mb = static_cast<double>(chol.memory_budget()->peak_bytes()) / 1e6;
  return p;
}

SolveProbe probe_solve(const SparseCholesky& chol, int threads, std::uint64_t seed) {
  const idx n = chol.num_rows();
  SolveProbe p;
  const std::vector<double> b = make_rhs(n, seed);
  DenseMatrix b16(n, 16);
  for (idx c = 0; c < 16; ++c) {
    const std::vector<double> col = make_rhs(n, seed + 1 + static_cast<std::uint64_t>(c));
    std::copy(col.begin(), col.end(), b16.col(c));
  }
  spc::SolveOptions serial;
  serial.threads = 1;
  std::vector<double> t1, t16, tp;
  for (int i = 0; i < 6; ++i) {  // first round warms the workspace
    Clock::time_point t0 = Clock::now();
    const std::vector<double> x = chol.solve(b, serial);
    const double s1 = seconds_between(t0, Clock::now());
    DenseMatrix x16 = b16;
    t0 = Clock::now();
    chol.solve_multi(x16, serial);
    const double s16 = seconds_between(t0, Clock::now());
    if (i > 0) {
      t1.push_back(s1);
      t16.push_back(s16);
    }
  }
  spc::SolveProfile prof;
  double idle = 0;
  for (int i = 0; i < 3; ++i) {
    DenseMatrix x16 = b16;
    spc::SolveOptions so;
    so.threads = threads;
    so.profile = &prof;
    prof = spc::SolveProfile{};
    const Clock::time_point t0 = Clock::now();
    chol.solve_multi(x16, so);
    tp.push_back(seconds_between(t0, Clock::now()));
    const double denom = prof.wall_s * static_cast<double>(prof.workers.size());
    idle += denom > 0 ? prof.total().idle_s / denom : 0;
  }
  p.rhs1_ms = 1e3 * median(t1);
  p.rhs16_ms = 1e3 * median(t16);
  p.panel16_s = median(tp);
  p.idle_frac = idle / 3;
  return p;
}

}  // namespace pb
