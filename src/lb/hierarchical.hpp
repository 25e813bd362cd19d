// The hierarchical partitioning algorithm (paper Section 3.4.3).
//
// For each candidate threshold Tmll (starting just above the
// synchronization cost C_N, stepping by tmll_step): contract every edge
// with latency < Tmll (guaranteeing achieved MLL >= Tmll), partition the
// contracted ("dumped") graph, and score the result with E = Es * Ec.
// The best-scoring candidate is expanded back to the original graph.
//
// The candidates are independent, so the sweep evaluates them on every CPU
// (util/parallel.hpp). Higher E wins and equal E goes to the lower Tmll,
// which is the first strict maximum of a sweep in Tmll order.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "lb/mapping.hpp"

namespace massf {

struct HierarchicalResult {
  std::vector<VertexId> part;  ///< per original vertex
  SimTime tmll = 0;
  SimTime achieved_mll = 0;
  PartitionScore score;
  Weight edge_cut = 0;
  double balance = 0;
  std::int32_t candidates_tried = 0;
};

/// One threshold of a sweep: contracting every edge with latency < tmll,
/// the first `contracted` edges of the sweep's latency order, leaves
/// `clusters` clusters.
struct TmllCandidate {
  SimTime tmll = 0;
  std::size_t contracted = 0;
  VertexId clusters = 0;
};

/// The thresholds a sweep evaluates, in ascending Tmll.
struct TmllSweep {
  std::vector<EdgeId> order;  ///< g's edge ids by ascending latency
  std::vector<TmllCandidate> candidates;
};

/// Lists the candidates with one union-find pass: every multiple of
/// tmll_step above C_N up to tmll_max, stopping before the first that
/// leaves fewer clusters than engines. `latencies` align with g's edge ids.
TmllSweep list_tmll_candidates(const Graph& g,
                               std::span<const std::int64_t> latencies,
                               const MappingOptions& opts);

/// Contracts, partitions and scores candidate `index` of `sweep`, and
/// expands its partition to g's vertices (candidates_tried is left 0).
/// It only reads its arguments, so candidates evaluate concurrently.
HierarchicalResult evaluate_tmll_candidate(
    const Graph& g, std::span<const std::int64_t> latencies,
    const MappingOptions& opts, const TmllSweep& sweep, std::size_t index);

/// Runs the Tmll sweep. `latencies` align with g's edge ids. Returns
/// nullopt when even the smallest admissible threshold leaves fewer
/// clusters than engines (the caller falls back to a flat partition).
std::optional<HierarchicalResult> hierarchical_partition(
    const Graph& g, std::span<const std::int64_t> latencies,
    const MappingOptions& opts);

}  // namespace massf
