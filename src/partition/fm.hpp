// Fiduccia–Mattheyses 2-way refinement.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace massf {

struct FmOptions {
  /// Target weight of part 0 (part 1 gets the remainder).
  Weight target0 = 0;
  /// Parts may exceed their target by this multiple.
  double tolerance = 1.05;
  std::int32_t max_passes = 8;
};

/// Refines a 2-way assignment (entries must be 0 or 1) in place, reducing
/// edge cut while keeping both parts within tolerance of their targets.
/// Returns the final edge cut.
Weight fm_refine_bisection(const Graph& g, std::span<VertexId> part,
                           const FmOptions& opts);

}  // namespace massf
