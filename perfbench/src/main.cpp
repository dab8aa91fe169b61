// spc_perfbench: the end-to-end time-to-solution benchmark.
//
//   spc_perfbench --workload lp_oneshot|cube_refactor|serve_mixed --seed N
//                 --seconds S --trace 0|1 [--tiny] [--trace-dir DIR]
//
// Prints a host record, a metric table (every metric with its unit and
// sample count) and, as the last line, the result JSON. perfbench/run.py
// builds and runs this program.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr, "spc_perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  bool have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") { args.seed = std::stoull(value()); have_seed = true; }
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() == "1";
      else if (a == "--tiny") args.tiny = true;
      else if (a == "--trace-dir") args.trace_dir = value();
      else throw std::invalid_argument("unknown argument " + a);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_seed) return usage("--seed is required");
  if (args.seconds <= 0) return usage("--seconds must be positive");
  if (!pb::release_build()) {
    std::fprintf(stderr, "spc_perfbench: refusing to report from a non-Release build\n");
    return 3;
  }
  const bool serve = args.workload == "serve_mixed";

  const std::string t = std::to_string(pb::nproc());
  std::string threads_json;
  if (args.workload == "lp_oneshot") {
    threads_json = "{\"factor\": " + t + ", \"solve\": 1}";
  } else if (args.workload == "cube_refactor") {
    threads_json = "{\"factor\": " + t + ", \"solve\": " + t + "}";
  } else if (serve) {
    const spc::server::ServerConfig cfg;
    threads_json = "{\"driver\": 1, \"server_workers\": " + std::to_string(cfg.workers) +
                   ", \"solve_per_panel\": " + std::to_string(cfg.solve_threads) +
                   ", \"factorize_request\": " + t + "}";
  } else {
    return usage("unknown --workload");
  }
  std::printf("%s\n", pb::host_record_json(args, threads_json).c_str());
  try {
    return serve ? pb::run_serve_mixed(args) : pb::run_closed_loop(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spc_perfbench: %s\n", e.what());
    return 1;
  }
}
