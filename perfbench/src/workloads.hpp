// The benchmark's workloads. Each returns the process exit code and prints
// its table and result line on stdout.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "graph/graph.hpp"

namespace pb {

// lp_oneshot and cube_refactor: closed loops, one request at a time.
int run_closed_loop(const Args& args);
// serve_mixed: an open loop against an in-process spcd Server.
int run_serve_mixed(const Args& args);

// Server-layer counters for one short burst of traffic against a fresh
// default-configured Server holding one factor of `a`.
struct ServerProbe {
  double admit_us = 0;         // median handle_frame return time, solves
  double batch_cols_mean = 0;  // RHS columns per panel sweep
  double batches = 0;          // panel sweeps
  double evictions = 0;        // registry evictions
  double registry_peak_mb = 0;
  double late_p99_ms = 0;      // generator lateness
  bool ok = false;             // every reply was a success
};
ServerProbe probe_server(const spc::SymSparse& a, int factor_threads,
                         int solves, std::uint64_t seed);

}  // namespace pb
