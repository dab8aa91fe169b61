// serve_mixed: an open loop against an in-process spcd Server with the
// default ServerConfig, driven only through Server::handle_frame with
// encoded frames (the surface spcd's event loop uses).
//
// One driver thread replays a schedule pre-drawn from the seed at a fixed
// absolute rate: single-RHS solves against CUBE25 (70%) and LP6000 (30%), and one
// refactor per kRefactorEvery requests. A refactor is analyze + factorize of
// one of kLpVersions LP6000 matrices drawn from the seed, never the one being
// served or one another refactor in flight targets. Later solves target the
// newest LP6000 key and the driver evicts the key it replaced, so every
// refactor does the full ordering and numeric work again. Every latency is timed from the
// request's scheduled send time, so a stall also charges the requests queued
// behind it; how late the driver itself ran is reported separately.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "factor/residual.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "layers.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace sv = spc::server;
using spc::DenseMatrix;
using spc::Fingerprint;
using spc::SparseCholesky;
using spc::SymSparse;

constexpr int kSetupReps = 3;
constexpr int kRhsPool = 16;
constexpr double kDrainLimitS = 30;
// The fixed absolute offered rate, requests/s. On a 4-core host the knee
// sits between 160 and 200; host speed swung up to 2x between runs, and at
// 160 a slow spell pushed most runs past the knee. 80 keeps a 2x margin.
// The price: batching is mostly off the critical path here (panels average
// about 1.2 columns; the solo service time asked of the two default
// workers is about 0.58 worker-seconds per second).
constexpr double kNominalRps = 80;
constexpr int kRefactorEvery = 100;  // one refactor per this many requests
constexpr int kSampleEvery = 8;      // one verified reply per this many solves
// LP6000 matrices refactors cycle through. Refactors can overlap (one every
// 1.25 s, each 0.6-1.1 s), so besides the one served, the ones in flight
// must leave a free matrix.
constexpr int kLpVersions = 5;
// Share of solves against LP6000; the rest go to CUBE25. Unequal, so the
// median solve falls inside one matrix's latency mode rather than between
// the two.
constexpr double kLpSolveShare = 0.3;

struct Reply {
  sv::Frame frame;
  Clock::time_point at;  // when the server invoked the reply callback
};

// A default-configured Server plus the reply queue its callbacks fill. The
// Server is the last member, so it shuts down (flushing every outstanding
// callback) while the queue is still alive.
class Service {
 public:
  Service() : server_(sv::ServerConfig{}) {}

  // Sends one frame; returns the time handle_frame took to return.
  double send(sv::MsgType type, std::vector<sv::u8> payload, std::uint64_t id) {
    sv::Frame f;
    f.type = type;
    f.request_id = id;
    f.payload = std::move(payload);
    const Clock::time_point t0 = Clock::now();
    server_.handle_frame(f, [this](sv::Frame r) {
      const Clock::time_point at = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back({std::move(r), at});
      }
      cv_.notify_one();
    });
    return seconds_between(t0, Clock::now());
  }

  // Waits until a reply is queued or `until` passes, then takes every
  // queued reply.
  std::vector<Reply> wait(Clock::time_point until) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, until, [this] { return !queue_.empty(); });
    std::vector<Reply> out;
    out.swap(queue_);
    return out;
  }

  sv::StatsReply stats() const { return server_.stats(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Reply> queue_;
  sv::Server server_;
};

Clock::time_point after_s(double s) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

// Sends one request and blocks until its reply (setup and probes only).
sv::Frame call(Service& svc, sv::MsgType type, std::vector<sv::u8> payload,
               std::uint64_t id) {
  svc.send(type, std::move(payload), id);
  const Clock::time_point give_up = after_s(kDrainLimitS);
  while (Clock::now() < give_up) {
    for (Reply& r : svc.wait(Clock::now() + std::chrono::milliseconds(100))) {
      if (r.frame.request_id == id) return std::move(r.frame);
    }
  }
  throw std::runtime_error("no reply from the server");
}

Fingerprint analyze_and_factorize(Service& svc, std::vector<sv::u8> analyze_payload,
                                  int threads, std::uint64_t id) {
  const sv::Frame ar = call(svc, sv::MsgType::kAnalyze, std::move(analyze_payload), id);
  if (ar.type != sv::MsgType::kAnalyzeOk) throw std::runtime_error("analyze refused");
  const Fingerprint key = sv::decode_analyze_reply(ar.payload).key;
  const sv::Frame fr = call(svc, sv::MsgType::kFactorize,
                            sv::encode_factorize_request({key, threads}), id + 1);
  if (fr.type != sv::MsgType::kFactorizeOk) throw std::runtime_error("factorize refused");
  return key;
}

// One served matrix: the matrices (versions) it is served as, each with its
// analyze payload encoded before any timing, and a pool of right-hand sides.
struct Served {
  std::string name;
  std::vector<SymSparse> versions;
  std::vector<std::vector<sv::u8>> payloads;  // analyze request per version
  std::vector<std::vector<double>> rhs;
  Fingerprint key;  // the newest factored version
  int version = 0;
  int last_target = 0;         // the version the last refactor went to
  std::vector<bool> in_flight;  // version -> a refactor to it is running

  void add(SymSparse a) {
    payloads.push_back(sv::encode_analyze_request({a, spc::SolverOptions{}}));
    versions.push_back(std::move(a));
    in_flight.push_back(false);
  }
  // The next version, round-robin, that is neither served nor the target of
  // a refactor in flight; -1 when there is none.
  int free_version() {
    const int n = static_cast<int>(versions.size());
    for (int i = 1; i <= n; ++i) {
      const int v = (last_target + i) % n;
      if (v != version && !in_flight[static_cast<std::size_t>(v)]) return last_target = v;
    }
    return -1;
  }
};

struct Inputs {
  Served m[2];  // 0 = CUBE25 (solves only), 1 = LP6000 (solves + refactors)
};

// The seed draws the LP6000 patterns and values (LpGen seed --seed for the
// first, seeds derived from it for the rest) and the right-hand sides;
// CUBE25 is fixed.
Inputs make_inputs(const Args& args) {
  Inputs in;
  const idx k = args.tiny ? 6 : 25;
  in.m[0].name = "CUBE" + std::to_string(k);
  in.m[0].add(spc::make_grid3d(k, k, k));
  spc::LpGenOptions o;
  o.n = args.tiny ? 400 : 6000;
  o.mean_overlap = args.tiny ? 20 : 200;
  o.hubs = args.tiny ? 2 : 48;
  o.hub_span = 0.05;
  in.m[1].name = "LP" + std::to_string(o.n);
  for (int v = 0; v < kLpVersions; ++v) {
    o.seed = v == 0 ? args.seed : args.seed * 1000003 + static_cast<std::uint64_t>(v);
    in.m[1].add(spc::make_lp_normal_equations(o));
  }
  for (int i = 0; i < 2; ++i) {
    for (int r = 0; r < kRhsPool; ++r) {
      in.m[i].rhs.push_back(make_rhs(in.m[i].versions[0].num_rows(),
                                     args.seed * 131 + static_cast<std::uint64_t>(i * kRhsPool + r)));
    }
  }
  return in;
}

struct Req {
  double at = 0;  // seconds after the phase start
  bool refactor = false;
  int m = 0;
  int rhs = 0;
  bool sample = false;
};

// `rate * seconds` arrivals placed uniformly at random in [0, seconds) —
// a Poisson process conditioned on its count, so every seed offers the same
// load.
std::vector<Req> make_schedule(double rate, double seconds, spc::Rng& rng) {
  const i64 n = std::max<i64>(1, std::llround(rate * seconds));
  std::vector<double> at(static_cast<std::size_t>(n));
  for (double& t : at) t = seconds * rng.uniform();
  std::sort(at.begin(), at.end());
  std::vector<Req> s(static_cast<std::size_t>(n));
  for (i64 k = 0; k < n; ++k) {
    Req& q = s[static_cast<std::size_t>(k)];
    q.at = at[static_cast<std::size_t>(k)];
    q.refactor = k % kRefactorEvery == kRefactorEvery / 2;
    q.m = q.refactor || rng.uniform() < kLpSolveShare ? 1 : 0;
    q.rhs = static_cast<int>(rng.next_below(kRhsPool));
    q.sample = !q.refactor && rng.next_below(kSampleEvery) == 0;
  }
  return s;
}

struct Sample {
  int m = 0;
  int version = 0;
  int rhs = 0;
  std::size_t lat = 0;  // its entry in PhaseStats::solve_lat
  std::vector<double> x;
};

struct PhaseStats {
  std::vector<double> solve_lat;     // s from the scheduled send; failed = inf
  std::vector<double> refactor_lat;  // s, scheduled analyze -> factorize reply
  std::vector<double> late;          // s the driver sent after the schedule
  std::vector<double> admit;         // s handle_frame took to return (solves)
  i64 attempted = 0;
  i64 failed = 0;
  double seconds = 0;
};

class Driver {
 public:
  Driver(Service& svc, Inputs& in, std::uint64_t seed)
      : svc_(svc), in_(in), rng_(seed * 2654435761ULL + 17) {}

  PhaseStats run(double rate, double seconds) {
    const std::vector<Req> sched = make_schedule(rate, seconds, rng_);
    PhaseStats st;
    sched_ = &sched;
    stats_ = &st;
    track_.clear();
    pending_ = 0;
    start_ = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Req& q = sched[i];
      const Clock::time_point due = due_of(q);
      for (;;) {
        for (Reply& r : svc_.wait(due)) handle(r);
        if (Clock::now() >= due) break;
      }
      st.late.push_back(seconds_between(due, Clock::now()));
      ++st.attempted;
      if (q.refactor) {
        Served& s = in_.m[q.m];
        const int target = s.free_version();
        if (target < 0) {  // refactors backed up past every matrix
          ++st.failed;
          st.refactor_lat.push_back(INFINITY);
          continue;
        }
        s.in_flight[static_cast<std::size_t>(target)] = true;
        issue(sv::MsgType::kAnalyze, s.payloads[static_cast<std::size_t>(target)], i,
              kAnalyze, target);
      } else {
        const Served& s = in_.m[q.m];
        const std::vector<sv::u8> payload = sv::encode_solve_request(
            {s.key, -1.0, s.rhs[static_cast<std::size_t>(q.rhs)]});
        st.admit.push_back(issue(sv::MsgType::kSolve, payload, i, kSolve, s.version));
      }
    }
    const Clock::time_point give_up = after_s(kDrainLimitS);
    while (pending_ > 0 && Clock::now() < give_up) {
      for (Reply& r : svc_.wait(Clock::now() + std::chrono::milliseconds(50))) handle(r);
    }
    // A request never answered failed, and counts as infinitely slow.
    st.failed += pending_;
    for (const auto& [id, t] : track_) {
      if (t.kind == kSolve) st.solve_lat.push_back(INFINITY);
      if (t.kind == kAnalyze || t.kind == kFactorize) st.refactor_lat.push_back(INFINITY);
    }
    st.seconds = seconds_between(start_, Clock::now());
    return st;
  }

  std::vector<Sample>& samples() { return samples_; }

 private:
  enum Kind { kSolve, kAnalyze, kFactorize, kEvict };
  struct Track {
    std::size_t req;
    Kind kind;
    int version;  // solves: the version solved against; refactors: the new one
  };

  Clock::time_point due_of(const Req& q) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(q.at));
  }

  double issue(sv::MsgType type, std::vector<sv::u8> payload, std::size_t req,
               Kind kind, int version) {
    const std::uint64_t id = next_id_++;
    track_[id] = {req, kind, version};
    ++pending_;
    return svc_.send(type, std::move(payload), id);
  }

  void handle(Reply& r) {
    const auto it = track_.find(r.frame.request_id);
    if (it == track_.end()) return;
    const Track t = it->second;
    track_.erase(it);
    --pending_;
    const Req& q = (*sched_)[t.req];
    const double lat = seconds_between(due_of(q), r.at);
    Served& s = in_.m[q.m];
    switch (t.kind) {
      case kSolve:
        if (r.frame.type != sv::MsgType::kSolveOk) {
          ++stats_->failed;
          stats_->solve_lat.push_back(INFINITY);
          return;
        }
        if (q.sample) {
          samples_.push_back({q.m, t.version, q.rhs, stats_->solve_lat.size(),
                              sv::decode_solve_reply(r.frame.payload).x});
        }
        stats_->solve_lat.push_back(lat);
        return;
      case kAnalyze: {
        if (r.frame.type != sv::MsgType::kAnalyzeOk) {
          s.in_flight[static_cast<std::size_t>(t.version)] = false;
          ++stats_->failed;
          stats_->refactor_lat.push_back(INFINITY);
          return;
        }
        const Fingerprint key = sv::decode_analyze_reply(r.frame.payload).key;
        issue(sv::MsgType::kFactorize, sv::encode_factorize_request({key, nproc()}),
              t.req, kFactorize, t.version);
        keys_[t.req] = key;
        return;
      }
      case kFactorize: {
        s.in_flight[static_cast<std::size_t>(t.version)] = false;
        if (r.frame.type != sv::MsgType::kFactorizeOk) {
          ++stats_->failed;
          stats_->refactor_lat.push_back(INFINITY);
          return;
        }
        stats_->refactor_lat.push_back(lat);
        const Fingerprint old = s.key;
        s.key = keys_[t.req];
        s.version = t.version;
        keys_.erase(t.req);
        issue(sv::MsgType::kEvict, sv::encode_evict_request({old}), t.req, kEvict,
              t.version);
        return;
      }
      case kEvict:
        if (r.frame.type != sv::MsgType::kEvictOk) ++stats_->failed;
        return;
    }
  }

  Service& svc_;
  Inputs& in_;
  spc::Rng rng_;
  std::vector<Sample> samples_;
  std::map<std::uint64_t, Track> track_;
  std::map<std::size_t, Fingerprint> keys_;  // refactor -> its analyzed key
  const std::vector<Req>* sched_ = nullptr;
  PhaseStats* stats_ = nullptr;
  Clock::time_point start_;
  std::uint64_t next_id_ = 1000;
  i64 pending_ = 0;
};

// Brings the service up: both matrices analyzed, factorized and warmed by
// one solve each.
void bring_up(Service& svc, Inputs& in) {
  std::uint64_t id = 1;
  for (Served& s : in.m) {
    s.key = analyze_and_factorize(svc, s.payloads[0], nproc(), id);
    s.version = 0;
    s.last_target = 0;
    s.in_flight.assign(s.versions.size(), false);
    id += 2;
    const sv::Frame r = call(svc, sv::MsgType::kSolve,
                             sv::encode_solve_request({s.key, -1.0, s.rhs[0]}), id++);
    if (r.type != sv::MsgType::kSolveOk) throw std::runtime_error("warm-up solve refused");
  }
}

// Checks the sampled replies: each by its residual on the matrix it was
// solved against, and against a facade solve on the same matrix.
// A wrong answer counts as failed and as infinitely slow in `st`.
i64 verify(const Inputs& in, const std::vector<Sample>& samples, PhaseStats& st,
           double* worst) {
  i64 bad = 0;
  std::map<std::pair<int, int>, SparseCholesky> facade;
  for (const Sample& sm : samples) {
    const Served& s = in.m[sm.m];
    const SymSparse& a = s.versions[static_cast<std::size_t>(sm.version)];
    const std::vector<double>& b = s.rhs[static_cast<std::size_t>(sm.rhs)];
    const double res = spc::solve_residual(a, sm.x, b);
    *worst = std::max(*worst, res);
    bool ok = res <= kResidualTol;
    if (ok) {
      auto it = facade.find({sm.m, sm.version});
      if (it == facade.end()) {
        it = facade.emplace(std::make_pair(sm.m, sm.version), SparseCholesky::analyze(a)).first;
        it->second.factorize();
      }
      const std::vector<double> ref = it->second.solve(b);
      double diff = 0, scale = 0;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        diff = std::max(diff, std::abs(ref[i] - sm.x[i]));
        scale = std::max(scale, std::abs(ref[i]));
      }
      ok = diff <= 1e-8 * scale;
    }
    if (!ok) {
      ++bad;
      st.solve_lat[sm.lat] = INFINITY;
    }
  }
  st.failed += bad;
  return bad;
}

double p99_ms(const std::vector<double>& lat) { return 1e3 * percentile(lat, 0.99); }

int run_untraced(const Args& args, Service& svc, Inputs& in, const std::vector<double>& setup) {
  Driver drv(svc, in, args.seed);
  PhaseStats nominal = drv.run(kNominalRps, args.seconds);
  const double rss_mb = peak_rss_mb();  // before verify() builds its facades
  double worst = 0;
  const i64 bad = verify(in, drv.samples(), nominal, &worst);
  const i64 attempted = nominal.attempted, failed = nominal.failed;

  Report rep;
  const i64 n = static_cast<i64>(nominal.solve_lat.size());
  rep.add("tts_p50_ms", 1e3 * median(nominal.solve_lat), "ms", n,
          "solve requests at the nominal rate, from the scheduled send");
  rep.add("tts_p99_ms", p99_ms(nominal.solve_lat), "ms", n,
          "printed only: spread across seeds too wide to gate on", /*in_result=*/false);
  rep.add("refactor_p50_ms", 1e3 * median(nominal.refactor_lat), "ms",
          static_cast<i64>(nominal.refactor_lat.size()), "analyze + factorize frames");
  rep.add("setup_s", median(setup), "s", kSetupReps);
  rep.add("peak_rss_mb", rss_mb, "MB", 1, "inputs + the served run");
  char note[128];
  std::snprintf(note, sizeof(note), "%zu sampled replies, %lld bad, worst residual %.3g",
                drv.samples().size(), static_cast<long long>(bad), worst);
  rep.add("failed_frac", static_cast<double>(failed) / static_cast<double>(attempted), "frac",
          attempted, note, /*in_result=*/false);
  rep.add("solves_per_s", static_cast<double>(n) / nominal.seconds, "1/s", n,
          "achieved at the nominal rate", /*in_result=*/false);
  rep.add("loadgen.late_p99_ms", p99_ms(nominal.late), "ms",
          static_cast<i64>(nominal.late.size()), "", /*in_result=*/false);
  rep.print_table("serve_mixed end-to-end");
  rep.print_result(failed == 0, attempted, failed);
  return 0;
}

int run_traced(const Args& args, Service& svc, Inputs& in) {
  const sv::StatsReply before = svc.stats();
  Driver drv(svc, in, args.seed);
  PhaseStats nominal = drv.run(kNominalRps, args.seconds / 2);
  const sv::StatsReply after = svc.stats();
  double worst = 0;
  verify(in, drv.samples(), nominal, &worst);
  i64 attempted = nominal.attempted, failed = nominal.failed;
  const int threads = nproc();

  // The refactor path replayed layer by layer on the second LP6000,
  // alternating with the untraced facade refactor.
  Tracer tr;
  LayerSamples ls;
  std::vector<double> plain;
  const SymSparse& a = in.m[1].versions[1];
  for (i64 k = 0; k < 3; ++k) {
    DenseMatrix none;
    std::optional<SparseCholesky> facade;
    plain.push_back(facade_request(a, nullptr, threads, SolveMode::kNone, none, &facade)
                        .tts_s);
    const ReplayResult r = replay_request(a, nullptr, threads, SolveMode::kNone, none, tr, k);
    attempted += 2;
    if (r.perm != facade->ordering() || r.factor_nnz != facade->factor_nnz_exact()) ++failed;
    ls.add(tr, k, r);
  }
  SparseCholesky lp = SparseCholesky::analyze(a);
  const FactorProbe fp = probe_factor(lp, threads);
  // The solve layer is reported as the mean over the solve mix.
  SparseCholesky cube = SparseCholesky::analyze(in.m[0].versions[0]);
  cube.factorize_parallel(threads);
  const SolveProbe s0 = probe_solve(cube, threads, args.seed);
  const SolveProbe s1 = probe_solve(lp, threads, args.seed);

  Report rep;
  ls.report(rep, [](const std::string&) { return std::string("LP refactor replay"); });
  rep.add("factor.serial_s", fp.serial_s, "s", 1);
  rep.add("factor.workspace_s", fp.workspace_s, "s", 1, "first call minus steady call");
  const std::string mix = "mean over the solve mix of " + in.m[0].name + " and " + in.m[1].name;
  auto mixed = [](double cube_v, double lp_v) {
    return (1 - kLpSolveShare) * cube_v + kLpSolveShare * lp_v;
  };
  rep.add("solve.panel16_s", mixed(s0.panel16_s, s1.panel16_s), "s", 6, mix);
  rep.add("solve.idle_frac", mixed(s0.idle_frac, s1.idle_frac), "frac", 6, mix);
  rep.add("solve.rhs1_ms", mixed(s0.rhs1_ms, s1.rhs1_ms), "ms", 10, mix);
  rep.add("solve.rhs16_ms", mixed(s0.rhs16_ms, s1.rhs16_ms), "ms", 10, mix);
  const i64 batches = after.batches - before.batches;
  rep.add("server.admit_us", 1e6 * median(nominal.admit), "us",
          static_cast<i64>(nominal.admit.size()));
  rep.add("server.batch_cols_mean",
          batches > 0 ? static_cast<double>(after.batched_cols - before.batched_cols) /
                            static_cast<double>(batches)
                      : 0,
          "cols", batches);
  rep.add("server.batches", static_cast<double>(batches), "count", 1);
  rep.add("server.evictions",
          static_cast<double>(after.registry_evictions - before.registry_evictions), "count", 1);
  rep.add("server.registry_peak_mb", static_cast<double>(after.registry_peak_bytes) / 1e6, "MB", 1);
  rep.add("loadgen.late_p99_ms", p99_ms(nominal.late), "ms",
          static_cast<i64>(nominal.late.size()));
  // Solo service time the offered traffic asks of each worker per second:
  // the utilisation without batching (batching only lowers it).
  const double busy_s = kNominalRps * (1.0 - 1.0 / kRefactorEvery) * 1e-3 *
                            mixed(s0.rhs1_ms, s1.rhs1_ms) +
                        kNominalRps / kRefactorEvery * median(plain);
  rep.add("server.offered_util", busy_s / sv::ServerConfig{}.workers, "frac", 1,
          "solo solve + refactor time per worker-second; printed only",
          /*in_result=*/false);
  rep.add("governor.peak_mb", fp.budget_peak_mb, "MB", 1, in.m[1].name + " facade");
  rep.add("trace.overhead_ms", 1e3 * (ls.tts_p50_s() - median(plain)), "ms", ls.count(),
          "traced refactor replay p50 minus untraced facade refactor p50");
  rep.add("trace.coverage", ls.coverage_p50(), "frac", ls.count(),
          "share of the traced refactor inside layer spans");
  rep.print_table("serve_mixed per-layer (traced)");
  if (!args.trace_dir.empty()) {
    const std::string path =
        args.trace_dir + "/serve_mixed-seed" + std::to_string(args.seed) + ".json";
    if (!tr.write_chrome(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# chrome trace: %s\n", path.c_str());
  }
  rep.print_result(failed == 0, attempted, failed);
  return 0;
}

}  // namespace

int run_serve_mixed(const Args& args) {
  // Set-up: a fresh Server brought up through frames, timed kSetupReps
  // times on inputs generated once beforehand.
  Inputs in = make_inputs(args);
  std::vector<double> setup;
  std::optional<Service> svc;
  for (int r = 0; r < kSetupReps; ++r) {
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    svc.emplace();
    bring_up(*svc, in);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  reset_peak_rss();
  return args.trace ? run_traced(args, *svc, in) : run_untraced(args, *svc, in, setup);
}

ServerProbe probe_server(const SymSparse& a, int factor_threads, int solves,
                         std::uint64_t seed) {
  ServerProbe p;
  Service svc;
  const Fingerprint key = analyze_and_factorize(
      svc, sv::encode_analyze_request({a, spc::SolverOptions{}}), factor_threads, 1);
  const std::vector<double> b = make_rhs(a.num_rows(), seed);
  // Open loop: one solve per millisecond, timed from the schedule.
  std::vector<double> admit, late;
  const Clock::time_point start = Clock::now();
  int answered = 0, ok = 0;
  for (int i = 0; i < solves; ++i) {
    const Clock::time_point due = start + std::chrono::milliseconds(i);
    for (;;) {
      for (Reply& r : svc.wait(due)) {
        ++answered;
        ok += r.frame.type == sv::MsgType::kSolveOk;
      }
      if (Clock::now() >= due) break;
    }
    late.push_back(seconds_between(due, Clock::now()));
    admit.push_back(svc.send(sv::MsgType::kSolve, sv::encode_solve_request({key, -1.0, b}),
                             100 + static_cast<std::uint64_t>(i)));
  }
  const Clock::time_point give_up = after_s(kDrainLimitS);
  while (answered < solves && Clock::now() < give_up) {
    for (Reply& r : svc.wait(Clock::now() + std::chrono::seconds(1))) {
      ++answered;
      ok += r.frame.type == sv::MsgType::kSolveOk;
    }
  }
  const sv::Frame ev = call(svc, sv::MsgType::kEvict, sv::encode_evict_request({key}), 99);
  const sv::StatsReply st = svc.stats();
  p.admit_us = 1e6 * median(admit);
  p.batches = static_cast<double>(st.batches);
  p.batch_cols_mean =
      st.batches > 0 ? static_cast<double>(st.batched_cols) / static_cast<double>(st.batches) : 0;
  p.evictions = static_cast<double>(st.registry_evictions);
  p.registry_peak_mb = static_cast<double>(st.registry_peak_bytes) / 1e6;
  p.late_p99_ms = 1e3 * percentile(late, 0.99);
  p.ok = ok == solves && ev.type == sv::MsgType::kEvictOk;
  return p;
}

}  // namespace pb
