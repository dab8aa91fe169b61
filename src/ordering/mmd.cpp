#include "ordering/mmd.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace spc {
namespace {

// Doubly-linked degree lists over a bucket array, the classic structure for
// O(1) extraction of a minimum-degree variable.
class DegreeLists {
 public:
  DegreeLists(idx n, idx max_degree)
      : head_(static_cast<std::size_t>(max_degree) + 2, kNone),
        next_(static_cast<std::size_t>(n), kNone),
        prev_(static_cast<std::size_t>(n), kNone),
        deg_(static_cast<std::size_t>(n), kNone),
        min_deg_(max_degree + 1) {}

  void insert(idx v, idx d) {
    deg_[v] = d;
    next_[v] = head_[d];
    prev_[v] = kNone;
    if (head_[d] != kNone) prev_[head_[d]] = v;
    head_[d] = v;
    min_deg_ = std::min(min_deg_, d);
  }

  void remove(idx v) {
    const idx d = deg_[v];
    if (prev_[v] != kNone) {
      next_[prev_[v]] = next_[v];
    } else {
      head_[d] = next_[v];
    }
    if (next_[v] != kNone) prev_[next_[v]] = prev_[v];
    deg_[v] = kNone;
  }

  bool contains(idx v) const { return deg_[v] != kNone; }
  idx degree(idx v) const { return deg_[v]; }

  // Smallest degree with a non-empty bucket; kNone if all empty.
  idx find_min_degree() {
    while (min_deg_ < static_cast<idx>(head_.size()) && head_[min_deg_] == kNone) {
      ++min_deg_;
    }
    return min_deg_ < static_cast<idx>(head_.size()) ? min_deg_ : kNone;
  }

  idx bucket_head(idx d) const { return head_[d]; }
  idx bucket_next(idx v) const { return next_[v]; }

 private:
  std::vector<idx> head_;
  std::vector<idx> next_;
  std::vector<idx> prev_;
  std::vector<idx> deg_;  // kNone when not in any list
  idx min_deg_;
};

class MmdSolver {
 public:
  MmdSolver(const Graph& g, const MmdOptions& opt)
      : n_(g.num_vertices()),
        opt_(opt),
        adj_var_(static_cast<std::size_t>(n_)),
        adj_el_(static_cast<std::size_t>(n_)),
        el_vars_(static_cast<std::size_t>(n_)),
        is_element_(static_cast<std::size_t>(n_), false),
        nv_(static_cast<std::size_t>(n_), 1),
        alive_(static_cast<std::size_t>(n_), true),
        merged_kids_(static_cast<std::size_t>(n_)),
        marker_(static_cast<std::size_t>(n_), 0),
        anchor_(static_cast<std::size_t>(n_), kNone),
        new_degree_(static_cast<std::size_t>(n_), 0),
        seen_(static_cast<std::size_t>(n_), 0),
        ext_stamp_(static_cast<std::size_t>(n_), 0),
        ext_begin_(static_cast<std::size_t>(n_), 0),
        ext_end_(static_cast<std::size_t>(n_), 0),
        blocked_stamp_(static_cast<std::size_t>(n_), 0),
        step_stamp_(1),
        lists_(n_, n_ > 0 ? n_ : 1) {
    for (idx v = 0; v < n_; ++v) {
      adj_var_[v].assign(g.adj_begin(v), g.adj_end(v));
      lists_.insert(v, g.degree(v));
    }
    order_.reserve(static_cast<std::size_t>(n_));
  }

  std::vector<idx> run() {
    while (static_cast<idx>(order_.size()) < n_) {
      step();
    }
    return order_;
  }

 private:
  void step() {
    const idx dmin = lists_.find_min_degree();
    SPC_CHECK(dmin != kNone, "mmd: degree lists empty before ordering finished");

    // --- Selection: independent pivots with degree <= dmin + delta.
    // AMD runs single elimination (one pivot per step).
    std::vector<idx> pivots;
    if (opt_.approximate_degree) {
      pivots.push_back(lists_.bucket_head(dmin));
    } else {
      const idx dmax = dmin + opt_.delta;
      for (idx d = dmin; d <= std::min<idx>(dmax, n_ - 1); ++d) {
        for (idx v = lists_.bucket_head(d); v != kNone;) {
          const idx next = lists_.bucket_next(v);
          if (!blocked_this_step(v)) {
            pivots.push_back(v);
            block_neighborhood(v);
          }
          v = next;
        }
      }
    }
    SPC_CHECK(!pivots.empty(), "mmd: no pivot selected in step");

    // --- Elimination of each pivot; collect the affected variables. ---
    affected_.clear();
    for (idx p : pivots) {
      if (!alive_[p]) continue;  // mass-eliminated by an earlier pivot this step
      eliminate(p);
    }

    // --- Supervariable merging + degree recomputation. ---
    dedupe_affected();
    merge_indistinguishable();
    if (opt_.approximate_degree && pivots.size() == 1 && is_element_[pivots[0]]) {
      update_approximate_degrees(pivots[0]);
    } else {
      update_exact_degrees(pivots);
    }
    unblock_all();
  }

  bool blocked_this_step(idx v) const { return blocked_stamp_[v] == step_stamp_; }

  void block_neighborhood(idx p) {
    blocked_stamp_[p] = step_stamp_;
    for (idx u : adj_var_[p]) {
      if (alive_[u]) blocked_stamp_[u] = step_stamp_;
    }
    for (idx e : adj_el_[p]) {
      if (!is_element_[e]) continue;
      for (idx u : el_vars_[e]) {
        if (alive_[u]) blocked_stamp_[u] = step_stamp_;
      }
    }
  }

  void unblock_all() { ++step_stamp_; }

  // Forms element p: Lp = (A_p u union of element lists) \ {p}. Absorbs the
  // old elements, prunes variable adjacencies, and mass-eliminates variables
  // whose neighborhood collapses to the new element.
  void eliminate(idx p) {
    lists_.remove(p);
    alive_[p] = false;

    // Build Lp with a marker.
    ++mark_;
    marker_[p] = mark_;
    std::vector<idx> lp;
    auto add = [&](idx u) {
      if (alive_[u] && marker_[u] != mark_) {
        marker_[u] = mark_;
        lp.push_back(u);
      }
    };
    for (idx u : adj_var_[p]) add(u);
    for (idx e : adj_el_[p]) {
      if (!is_element_[e]) continue;  // already absorbed
      for (idx u : el_vars_[e]) add(u);
      is_element_[e] = false;  // absorb e into p
      el_vars_[e].clear();
      el_vars_[e].shrink_to_fit();
    }
    adj_var_[p].clear();
    adj_el_[p].clear();

    emit(p);

    // Prune each i in Lp: drop edges into Lp (now represented by element p),
    // drop absorbed elements, add element p.
    for (idx i : lp) {
      auto& av = adj_var_[i];
      av.erase(std::remove_if(av.begin(), av.end(),
                              [&](idx u) {
                                return !alive_[u] || marker_[u] == mark_;
                              }),
               av.end());
      auto& ae = adj_el_[i];
      ae.erase(std::remove_if(ae.begin(), ae.end(),
                              [&](idx e) { return !is_element_[e]; }),
               ae.end());
      ae.push_back(p);
    }

    // Mass elimination: i whose entire remaining adjacency is element p.
    std::vector<idx> survivors;
    survivors.reserve(lp.size());
    for (idx i : lp) {
      if (adj_var_[i].empty() && adj_el_[i].size() == 1 && adj_el_[i][0] == p) {
        lists_.remove(i);
        alive_[i] = false;
        adj_el_[i].clear();
        emit(i);
      } else {
        survivors.push_back(i);
        affected_.push_back(i);
        anchor_[i] = p;  // a later pivot of this step that also borders i wins
      }
    }

    is_element_[p] = true;
    el_vars_[p] = std::move(survivors);
  }

  // Appends supervariable v (principal + merged members) to the order.
  void emit(idx v) {
    order_.push_back(v);
    // Merged members are indistinguishable; emit them right after their
    // principal, recursively.
    for (std::size_t k = 0; k < merged_kids_[v].size(); ++k) {
      const idx kid = merged_kids_[v][k];
      order_.push_back(kid);
      for (idx grandkid : merged_kids_[kid]) merged_kids_[v].push_back(grandkid);
      // Note: grandkids appended to v's list get emitted by this same loop.
      merged_kids_[kid].clear();
    }
    merged_kids_[v].clear();
  }

  void dedupe_affected() {
    std::sort(affected_.begin(), affected_.end());
    affected_.erase(std::unique(affected_.begin(), affected_.end()), affected_.end());
    affected_.erase(std::remove_if(affected_.begin(), affected_.end(),
                                   [&](idx v) { return !alive_[v]; }),
                    affected_.end());
  }

  // Hash-based indistinguishable-variable detection among affected variables.
  void merge_indistinguishable() {
    if (affected_.size() < 2) return;
    std::vector<std::pair<std::uint64_t, idx>> hashes;
    hashes.reserve(affected_.size());
    for (idx v : affected_) {
      compact(v);
      std::uint64_t h = 1469598103934665603ULL;
      for (idx u : adj_var_[v]) h = (h ^ static_cast<std::uint64_t>(u)) * 1099511628211ULL;
      std::uint64_t he = 0;
      for (idx e : adj_el_[v]) he += static_cast<std::uint64_t>(e) * 0x9e3779b97f4a7c15ULL;
      hashes.emplace_back(h + he, v);
    }
    std::sort(hashes.begin(), hashes.end());
    for (std::size_t a = 0; a < hashes.size(); ++a) {
      const idx v = hashes[a].second;
      if (!alive_[v]) continue;
      for (std::size_t b = a + 1;
           b < hashes.size() && hashes[b].first == hashes[a].first; ++b) {
        const idx u = hashes[b].second;
        if (!alive_[u]) continue;
        if (indistinguishable(v, u)) merge(v, u);
      }
    }
  }

  // Drops dead entries from v's adjacency lists and sorts and dedupes the
  // element list (lazy cleanup). adj_var_ needs no sort: it starts as a
  // sorted, duplicate-free Graph row and is only ever filtered in order.
  void compact(idx v) {
    auto& av = adj_var_[v];
    av.erase(std::remove_if(av.begin(), av.end(),
                            [&](idx u) { return !alive_[u]; }),
             av.end());
    auto& ae = adj_el_[v];
    ae.erase(std::remove_if(ae.begin(), ae.end(),
                            [&](idx e) { return !is_element_[e]; }),
             ae.end());
    std::sort(ae.begin(), ae.end());
    ae.erase(std::unique(ae.begin(), ae.end()), ae.end());
  }

  // True if u and v have identical quotient-graph neighborhoods (ignoring
  // each other in the variable lists). Both must be compacted.
  bool indistinguishable(idx v, idx u) {
    if (adj_el_[v] != adj_el_[u]) return false;
    // Compare adj_var \ {u, v}.
    const auto& a = adj_var_[v];
    const auto& b = adj_var_[u];
    std::size_t ia = 0, ib = 0;
    while (true) {
      while (ia < a.size() && (a[ia] == u || a[ia] == v)) ++ia;
      while (ib < b.size() && (b[ib] == u || b[ib] == v)) ++ib;
      if (ia == a.size() || ib == b.size()) break;
      if (a[ia] != b[ib]) return false;
      ++ia;
      ++ib;
    }
    while (ia < a.size() && (a[ia] == u || a[ia] == v)) ++ia;
    while (ib < b.size() && (b[ib] == u || b[ib] == v)) ++ib;
    return ia == a.size() && ib == b.size();
  }

  void merge(idx principal, idx v) {
    nv_[principal] += nv_[v];
    nv_[v] = 0;
    alive_[v] = false;
    if (lists_.contains(v)) lists_.remove(v);
    merged_kids_[principal].push_back(v);
    adj_var_[v].clear();
    adj_el_[v].clear();
    // Stale references to v inside element lists / adjacencies are filtered
    // lazily via alive_[].
  }

  // Amestoy-Davis-Duff approximate degree after eliminating pivot p with
  // element list Lp = el_vars_[p]: for each affected i,
  //   d(i) <= |Lp \ i| + sum(nv over A_i) + sum over e in E_i \ {p} of |Le \ Lp|
  // where the element externals |Le \ Lp| come from one subtraction pass.
  void update_approximate_degrees(idx p) {
    if (w_stamp_.empty()) {
      w_stamp_.assign(static_cast<std::size_t>(n_), 0);
      w_ext_.assign(static_cast<std::size_t>(n_), 0);
    }
    ++w_tick_;
    i64 lp_size = 0;
    for (idx u : el_vars_[p]) {
      if (alive_[u]) lp_size += nv_[u];
    }
    for (idx i : el_vars_[p]) {
      if (!alive_[i]) continue;
      for (idx e : adj_el_[i]) {
        if (!is_element_[e] || e == p) continue;
        if (w_stamp_[e] != w_tick_) {
          w_stamp_[e] = w_tick_;
          i64 size = 0;
          for (idx u : el_vars_[e]) {
            if (alive_[u]) size += nv_[u];
          }
          w_ext_[e] = size;
        }
        w_ext_[e] -= nv_[i];
      }
    }
    for (idx i : el_vars_[p]) {
      if (!alive_[i]) continue;
      i64 d = lp_size - nv_[i];
      for (idx u : adj_var_[i]) {
        if (alive_[u]) d += nv_[u];
      }
      for (idx e : adj_el_[i]) {
        if (!is_element_[e] || e == p) continue;
        if (w_ext_[e] > 0) d += w_ext_[e];
      }
      const idx prev = lists_.contains(i) ? lists_.degree(i) : n_ - 1;
      const idx bound = static_cast<idx>(
          std::min<i64>({d, n_ - 1, static_cast<i64>(prev) + lp_size - nv_[i]}));
      if (lists_.contains(i)) lists_.remove(i);
      lists_.insert(i, std::max<idx>(bound, 0));
    }
  }

  // Exact external degrees of this step's affected variables, anchored on
  // the new elements (Liu's update). Each survivor i of pivot p = anchor_[i]
  // lies in Lp, so
  //   deg(i) = |Lp| - nv_i + |(A_i u U_{e in E_i, e != p} (Le \ Lp))|,
  // all sizes counting live supervariable weights. Lp is marked and weighed
  // once per new element, and each Le \ Lp is gathered once per new element
  // into ext_buf_, so no variable rescans Lp. Degrees go through new_degree_
  // and are inserted in sorted affected_ order, keeping the bucket order.
  void update_exact_degrees(const std::vector<idx>& pivots) {
    for (idx p : pivots) {
      if (!is_element_[p]) continue;  // mass-eliminated before its turn
      ++mark_;
      i64 lp_weight = 0;
      for (idx u : el_vars_[p]) {
        if (!alive_[u]) continue;
        marker_[u] = mark_;
        lp_weight += nv_[u];
      }
      ++ext_tick_;
      ext_buf_.clear();
      for (idx i : el_vars_[p]) {
        if (!alive_[i] || anchor_[i] != p) continue;
        ++seen_tick_;
        i64 d = lp_weight - nv_[i];
        for (idx u : adj_var_[i]) {
          if (alive_[u] && marker_[u] != mark_ && seen_[u] != seen_tick_) {
            seen_[u] = seen_tick_;
            d += nv_[u];
          }
        }
        for (idx e : adj_el_[i]) {
          if (e == p || !is_element_[e]) continue;
          if (ext_stamp_[e] != ext_tick_) gather_external(e);
          for (i64 k = ext_begin_[e]; k < ext_end_[e]; ++k) {
            const idx u = ext_buf_[static_cast<std::size_t>(k)];
            if (seen_[u] != seen_tick_) {
              seen_[u] = seen_tick_;
              d += nv_[u];
            }
          }
        }
        new_degree_[i] = static_cast<idx>(std::min<i64>(d, n_ - 1));
      }
    }
    for (idx v : affected_) {
      if (!alive_[v]) continue;
      if (lists_.contains(v)) lists_.remove(v);
      lists_.insert(v, new_degree_[v]);
    }
  }

  // Appends Le \ Lp (live members of element e not marked in the current
  // new element) to ext_buf_ and records its range.
  void gather_external(idx e) {
    ext_stamp_[e] = ext_tick_;
    ext_begin_[e] = static_cast<i64>(ext_buf_.size());
    for (idx u : el_vars_[e]) {
      if (alive_[u] && marker_[u] != mark_) ext_buf_.push_back(u);
    }
    ext_end_[e] = static_cast<i64>(ext_buf_.size());
  }

  idx n_;
  MmdOptions opt_;
  std::vector<std::vector<idx>> adj_var_;
  std::vector<std::vector<idx>> adj_el_;
  std::vector<std::vector<idx>> el_vars_;
  std::vector<char> is_element_;  // char, not bool: read in every inner loop
  std::vector<idx> nv_;
  std::vector<char> alive_;       // char, not bool: read in every inner loop
  std::vector<std::vector<idx>> merged_kids_;
  std::vector<idx> marker_;
  idx mark_ = 0;
  std::vector<idx> anchor_;      // new element each affected variable lies in
  std::vector<idx> new_degree_;  // exact degrees before list insertion
  std::vector<i64> seen_;        // per-variable dedup stamp (seen_tick_)
  i64 seen_tick_ = 0;
  std::vector<idx> ext_buf_;     // Le \ Lp for the current new element p
  std::vector<i64> ext_stamp_;   // ext_tick_ when Le \ Lp was gathered
  std::vector<i64> ext_begin_;
  std::vector<i64> ext_end_;
  i64 ext_tick_ = 0;
  std::vector<idx> blocked_stamp_;
  idx step_stamp_ = 0;
  DegreeLists lists_;
  std::vector<idx> affected_;
  std::vector<idx> order_;
  std::vector<i64> w_stamp_;
  std::vector<i64> w_ext_;
  i64 w_tick_ = 0;
};

}  // namespace

std::vector<idx> mmd_order(const Graph& g, const MmdOptions& opt) {
  if (g.num_vertices() == 0) return {};
  MmdSolver solver(g, opt);
  return solver.run();
}

std::vector<idx> amd_order(const Graph& g) {
  MmdOptions opt;
  opt.approximate_degree = true;
  return mmd_order(g, opt);
}

}  // namespace spc
