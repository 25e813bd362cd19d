#include "lb/hierarchical.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/union_find.hpp"
#include "partition/partition.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace massf {

TmllSweep list_tmll_candidates(const Graph& g,
                               std::span<const std::int64_t> latencies,
                               const MappingOptions& opts) {
  MASSF_CHECK(static_cast<EdgeId>(latencies.size()) == g.num_edges());
  MASSF_CHECK(opts.num_engines >= 1);

  const SimTime sync = opts.cluster.sync_cost_time(opts.num_engines);
  // First admissible threshold: smallest multiple of the step strictly
  // greater than the synchronization cost (Tmll must exceed C_N or all time
  // goes to synchronization).
  SimTime tmll = (sync / opts.tmll_step + 1) * opts.tmll_step;

  // Edges sorted by latency so the contraction grows incrementally as the
  // threshold rises.
  TmllSweep sweep;
  sweep.order.resize(static_cast<std::size_t>(g.num_edges()));
  std::iota(sweep.order.begin(), sweep.order.end(), EdgeId{0});
  std::sort(sweep.order.begin(), sweep.order.end(), [&](EdgeId a, EdgeId b) {
    return latencies[static_cast<std::size_t>(a)] <
           latencies[static_cast<std::size_t>(b)];
  });

  UnionFind uf(g.num_vertices());
  std::size_t cursor = 0;
  for (; tmll <= opts.tmll_max; tmll += opts.tmll_step) {
    while (cursor < sweep.order.size() &&
           latencies[static_cast<std::size_t>(sweep.order[cursor])] < tmll) {
      const EdgeId e = sweep.order[cursor++];
      uf.unite(g.edge_u(e), g.edge_v(e));
    }
    if (uf.num_sets() < opts.num_engines) break;  // not enough parallelism
    sweep.candidates.push_back({tmll, cursor, uf.num_sets()});
  }
  return sweep;
}

HierarchicalResult evaluate_tmll_candidate(
    const Graph& g, std::span<const std::int64_t> latencies,
    const MappingOptions& opts, const TmllSweep& sweep, std::size_t index) {
  const TmllCandidate& c = sweep.candidates[index];
  // The components of the first `contracted` edges; compress() labels
  // them by first appearance, whatever order they were united in.
  UnionFind uf(g.num_vertices());
  for (std::size_t k = 0; k < c.contracted; ++k) {
    const EdgeId e = sweep.order[k];
    uf.unite(g.edge_u(e), g.edge_v(e));
  }
  MASSF_DCHECK(uf.num_sets() == c.clusters);
  const std::vector<VertexId> cluster = uf.compress();
  std::vector<EdgeId> origin;
  const Graph dumped = contract(g, cluster, uf.num_sets(), latencies, &origin);
  std::vector<std::int64_t> dumped_lat(origin.size());
  for (std::size_t i = 0; i < origin.size(); ++i) {
    dumped_lat[i] = latencies[static_cast<std::size_t>(origin[i])];
  }

  PartitionOptions popt;
  popt.num_parts = opts.num_engines;
  popt.imbalance_tolerance = opts.imbalance_tolerance;
  popt.seed = opts.seed;
  const PartitionResult pr = partition_graph(dumped, popt);

  SimTime mll = min_cut_edge_aux(dumped, pr.part, dumped_lat);
  if (mll == std::numeric_limits<std::int64_t>::max()) {
    // Nothing cut (can only happen for num_engines == 1): the partition
    // is fully decoupled; treat the window as the sweep ceiling.
    mll = opts.tmll_max;
  }

  HierarchicalResult r;
  r.part.resize(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    r.part[static_cast<std::size_t>(v)] = pr.part[static_cast<std::size_t>(
        cluster[static_cast<std::size_t>(v)])];
  }
  r.tmll = c.tmll;
  r.achieved_mll = mll;
  r.score = score_partition(
      mll, opts.cluster.sync_cost_time(opts.num_engines), pr.part_weights);
  r.edge_cut = pr.edge_cut;
  r.balance = pr.balance(dumped.total_vertex_weight());
  return r;
}

std::optional<HierarchicalResult> hierarchical_partition(
    const Graph& g, std::span<const std::int64_t> latencies,
    const MappingOptions& opts) {
  const TmllSweep sweep = list_tmll_candidates(g, latencies, opts);
  const std::size_t count = sweep.candidates.size();
  if (count == 0) return std::nullopt;

  // Each worker keeps its best candidate, so memory grows with the
  // workers, not the candidates; the workers' bests then reduce by the
  // same rule.
  struct Best {
    std::size_t index = 0;
    HierarchicalResult result;
  };
  const auto beats = [](const Best& a, const Best& b) {
    return a.result.score.e > b.result.score.e ||
           (a.result.score.e == b.result.score.e && a.index < b.index);
  };
  std::vector<std::optional<Best>> kept(parallel_width(count));
  parallel_for(count, [&](std::size_t worker, std::size_t i) {
    Best b{i, evaluate_tmll_candidate(g, latencies, opts, sweep, i)};
    std::optional<Best>& slot = kept[worker];
    if (!slot || beats(b, *slot)) slot = std::move(b);
  });
  std::optional<Best> best;
  for (std::optional<Best>& b : kept) {
    if (b && (!best || beats(*b, *best))) best = std::move(b);
  }
  MASSF_CHECK(best.has_value());

  best->result.candidates_tried = static_cast<std::int32_t>(count);
  MASSF_LOG(kDebug) << "hierarchical sweep: " << count
                    << " candidates, chose Tmll="
                    << to_milliseconds(best->result.tmll)
                    << "ms E=" << best->result.score.e;
  return std::move(best->result);
}

}  // namespace massf
