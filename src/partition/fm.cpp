#include "partition/fm.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>

#include "util/check.hpp"

namespace massf {
namespace {

struct Candidate {
  Weight gain;
  VertexId v;
  // Max-heap by gain; ties broken by lower vertex id for determinism.
  bool operator<(const Candidate& o) const {
    return gain != o.gain ? gain < o.gain : v > o.v;
  }
};

}  // namespace

Weight fm_refine_bisection(const Graph& g, std::span<VertexId> part,
                           const FmOptions& opts) {
  const VertexId n = g.num_vertices();
  MASSF_CHECK(static_cast<VertexId>(part.size()) == n);

  const Weight total = g.total_vertex_weight();
  const Weight target1 = total - opts.target0;
  const auto max_w = [&](int side) {
    const Weight target = side == 0 ? opts.target0 : target1;
    return static_cast<Weight>(
        std::ceil(static_cast<double>(target) * opts.tolerance));
  };

  // Internal/external incident weights per vertex; gain = ext - int.
  std::vector<Weight> ext(static_cast<std::size_t>(n), 0);
  std::vector<Weight> inter(static_cast<std::size_t>(n), 0);
  Weight cut = 0;
  Weight w[2] = {0, 0};
  for (VertexId v = 0; v < n; ++v) {
    w[part[static_cast<std::size_t>(v)]] += g.vertex_weight(v);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.arc_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (part[static_cast<std::size_t>(nbrs[i])] ==
          part[static_cast<std::size_t>(v)]) {
        inter[static_cast<std::size_t>(v)] += ws[i];
      } else {
        ext[static_cast<std::size_t>(v)] += ws[i];
        cut += ws[i];
      }
    }
  }
  cut /= 2;

  const auto violation = [&]() {
    return std::max<Weight>(0, w[0] - max_w(0)) +
           std::max<Weight>(0, w[1] - max_w(1));
  };

  std::vector<char> locked(static_cast<std::size_t>(n));
  std::vector<VertexId> moved;
  moved.reserve(static_cast<std::size_t>(n));

  for (std::int32_t pass = 0; pass < opts.max_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), char{0});
    moved.clear();

    std::priority_queue<Candidate> heap;
    for (VertexId v = 0; v < n; ++v) {
      heap.push({ext[static_cast<std::size_t>(v)] -
                     inter[static_cast<std::size_t>(v)],
                 v});
    }

    const Weight start_cut = cut;
    Weight best_cut = cut;
    Weight best_violation = violation();
    std::size_t best_prefix = 0;
    std::size_t since_best = 0;
    const std::size_t stall_limit =
        std::max<std::size_t>(64, static_cast<std::size_t>(n) / 8);

    while (!heap.empty() && since_best < stall_limit) {
      const Candidate c = heap.top();
      heap.pop();
      const auto vi = static_cast<std::size_t>(c.v);
      if (locked[vi]) continue;
      const Weight cur_gain = ext[vi] - inter[vi];
      if (c.gain != cur_gain) continue;  // stale entry

      const int src = part[vi];
      const int dst = 1 - src;
      const Weight wv = g.vertex_weight(c.v);
      // A move is admissible if the destination stays within bound, or if
      // the source is currently over its bound (a balancing move).
      const bool dst_ok = w[dst] + wv <= max_w(dst);
      const bool src_over = w[src] > max_w(src);
      if (!dst_ok && !src_over) continue;
      if (w[src] - wv <= 0 && n > 1) continue;  // never empty a part

      // Execute the move.
      locked[vi] = 1;
      part[vi] = static_cast<VertexId>(dst);
      w[src] -= wv;
      w[dst] += wv;
      cut -= cur_gain;
      std::swap(ext[vi], inter[vi]);
      const auto nbrs = g.neighbors(c.v);
      const auto ws = g.arc_weights(c.v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const auto ui = static_cast<std::size_t>(nbrs[i]);
        if (part[ui] == dst) {
          ext[ui] -= ws[i];
          inter[ui] += ws[i];
        } else {
          ext[ui] += ws[i];
          inter[ui] -= ws[i];
        }
        if (!locked[ui]) heap.push({ext[ui] - inter[ui], nbrs[i]});
      }
      moved.push_back(c.v);

      // Track best prefix: prefer lower balance violation, then lower cut.
      const Weight viol = violation();
      if (std::tie(viol, cut) < std::tie(best_violation, best_cut)) {
        best_violation = viol;
        best_cut = cut;
        best_prefix = moved.size();
        since_best = 0;
      } else {
        ++since_best;
      }
    }

    // Roll back moves past the best prefix.
    while (moved.size() > best_prefix) {
      const VertexId v = moved.back();
      moved.pop_back();
      const auto vi = static_cast<std::size_t>(v);
      const int src = part[vi];
      const int dst = 1 - src;
      const Weight wv = g.vertex_weight(v);
      const Weight gain = ext[vi] - inter[vi];
      part[vi] = static_cast<VertexId>(dst);
      w[src] -= wv;
      w[dst] += wv;
      cut -= gain;
      std::swap(ext[vi], inter[vi]);
      const auto nbrs = g.neighbors(v);
      const auto ws = g.arc_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const auto ui = static_cast<std::size_t>(nbrs[i]);
        if (part[ui] == dst) {
          ext[ui] -= ws[i];
          inter[ui] += ws[i];
        } else {
          ext[ui] += ws[i];
          inter[ui] -= ws[i];
        }
      }
    }
    MASSF_DCHECK(cut == best_cut);

    if (best_prefix == 0 && best_cut >= start_cut) break;  // no progress
  }
  return cut;
}

}  // namespace massf
