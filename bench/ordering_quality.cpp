// Ordering quality comparison backing the paper's §3.1 choices: nested
// dissection for regular grid problems ("asymptotically optimal") and
// multiple minimum degree for irregular matrices ("considered the best for
// most irregular sparse matrices with respect to sequential operation count
// and fill"). Natural order and RCM are included as baselines, AMD as the
// modern cheap alternative. Each cell also gives the ordering's wall time,
// the minimum of three runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "graph/permutation.hpp"
#include "ordering/geometric_nd.hpp"
#include "ordering/mmd.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "support/table.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"

namespace {

spc::i64 fill_of(const spc::SymSparse& a, const std::vector<spc::idx>& perm,
                 spc::i64* ops) {
  const spc::SymSparse p = a.permuted(perm);
  const std::vector<spc::i64> counts =
      spc::factor_col_counts(p, spc::elimination_tree(p));
  if (ops != nullptr) *ops = spc::factor_flops(counts);
  return spc::factor_nnz(counts);
}

// Runs `order` three times; returns the last permutation and the fastest
// run's wall time in milliseconds.
std::vector<spc::idx> min_of_3(const std::function<std::vector<spc::idx>()>& order,
                               double* ms) {
  std::vector<spc::idx> perm;
  *ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    perm = order();
    const std::chrono::duration<double, std::milli> dt =
        std::chrono::steady_clock::now() - t0;
    *ms = std::min(*ms, dt.count());
  }
  return perm;
}

}  // namespace

int main() {
  using namespace spc;
  const SuiteScale scale = suite_scale_from_env();
  std::printf(
      "Ordering quality: NZ(L) in thousands / ops in Mflops / ordering time\n"
      "(min of 3 runs)\n");
  bench::print_scale_banner(scale);

  Table t({"Matrix", "natural", "RCM", "AMD", "MMD", "ND (general)", "paper's choice"});
  for (const char* name : {"GRID150", "CUBE30", "BCSSTK15", "BCSSTK29", "10FLEET"}) {
    const BenchMatrix bm = make_bench_matrix(name, scale);
    const Graph g = bm.matrix.pattern();
    t.new_row();
    t.add(bm.name);
    const std::function<std::vector<idx>()> orderings[] = {
        [&] { return identity_permutation(bm.matrix.num_rows()); },
        [&] { return rcm_order(g); },
        [&] { return amd_order(g); },
        [&] { return mmd_order(g); },
        [&] { return nested_dissection_order(g); },
        // The ordering the paper prescribes for this matrix class.
        [&] { return order_bench_matrix(bm); },
    };
    for (const auto& order : orderings) {
      double ms = 0;
      const std::vector<idx> perm = min_of_3(order, &ms);
      i64 ops = 0;
      const i64 nz = fill_of(bm.matrix, perm, &ops);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%lldk / %.0fM / %.1fms",
                    static_cast<long long>(nz / 1000), static_cast<double>(ops) / 1e6, ms);
      t.add(std::string(buf));
    }
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: fill-reducing orderings (AMD/MMD/ND) beat profile\n"
      "orderings (natural/RCM) by large factors; geometric ND wins on grids;\n"
      "MMD/AMD win or tie on irregular problems.\n");
  return 0;
}
