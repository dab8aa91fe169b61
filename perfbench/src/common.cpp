#include "common.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "linalg/kernels.hpp"
#include "support/rng.hpp"

#ifndef SPC_BENCH_BUILD_TYPE
#define SPC_BENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || v[hi] == v[lo]) return v[lo];  // also inf - inf
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void reset_peak_rss() {
  // Hand freed heap back to the kernel first, so the count starts from the
  // live data rather than from what earlier work left cached in malloc.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
  }
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 i64 samples, const std::string& note, bool in_result) {
  metrics_.push_back({name, value, unit, samples, note, in_result});
}

void Report::print_table(const std::string& title) const {
  std::printf("# %s\n", title.c_str());
  std::printf("# %-26s %16s %-9s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : metrics_) {
    std::printf("# %-26s %16.6g %-9s %8lld  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples),
                m.note.c_str());
  }
}

void Report::print_result(bool correct, i64 attempted, i64 failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics_) {
    if (!m.in_result) continue;
    // A failed request counts as infinitely slow; JSON has no infinity.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), v, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t), index_(t->spans_.size()) {
  Span s;
  s.name = name;
  s.request = t->request_;
  s.parent = t->open_.empty() ? -1 : static_cast<long>(t->open_.back());
  t->open_.push_back(index_);
  s.start_s = seconds_between(t->origin_, Clock::now());
  t->spans_.push_back(std::move(s));
}

Tracer::Scope::~Scope() {
  t_->spans_[index_].end_s = seconds_between(t_->origin_, Clock::now());
  t_->open_.pop_back();
}

double Tracer::total_s(i64 id, const std::string& name) const {
  double s = 0;
  for (const Span& sp : spans_) {
    if (sp.request == id && sp.name == name) s += sp.end_s - sp.start_s;
  }
  return s;
}

double Tracer::covered_s(i64 id) const {
  double s = 0;
  for (const Span& sp : spans_) {
    if (sp.request == id && sp.parent < 0) s += sp.end_s - sp.start_s;
  }
  return s;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"request\": %lld, \"span\": %zu, \"parent\": %ld}}",
                 i ? ",\n" : "", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, static_cast<long long>(s.request),
                 i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Entries entries_of(const spc::SymSparse& a) {
  Entries e;
  e.n = a.num_rows();
  e.diag.resize(static_cast<std::size_t>(e.n));
  const auto& ptr = a.col_ptr();
  const auto& row = a.row_idx();
  const auto& val = a.values();
  for (idx j = 0; j < e.n; ++j) {
    for (i64 p = ptr[static_cast<std::size_t>(j)];
         p < ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const idx i = row[static_cast<std::size_t>(p)];
      if (i == j) {
        e.diag[static_cast<std::size_t>(j)] = val[static_cast<std::size_t>(p)];
      } else {
        e.pos.emplace_back(i, j);
        e.val.push_back(val[static_cast<std::size_t>(p)]);
      }
    }
  }
  return e;
}

spc::SymSparse with_diag_shift(const Entries& e, double shift) {
  std::vector<double> diag = e.diag;
  for (double& d : diag) d += shift;
  return spc::SymSparse::from_entries(e.n, diag, e.pos, e.val);
}

std::vector<double> make_rhs(idx n, std::uint64_t seed) {
  spc::Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

bool release_build() {
#ifdef NDEBUG
  return std::string(SPC_BENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::string host_record_json(const Args& args, const std::string& threads_json) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"host\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %d, \"hardware_concurrency\": %u, "
                "\"threads\": %s, \"gemm_isa\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}}",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                nproc(), std::thread::hardware_concurrency(), threads_json.c_str(),
                spc::kernel_isa_name(spc::kernel_isa()), __VERSION__,
                SPC_BENCH_BUILD_TYPE);
  return buf;
}

}  // namespace pb
