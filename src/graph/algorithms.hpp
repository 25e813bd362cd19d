// Basic graph algorithms shared across modules.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace massf {

/// Connected components; returns component id per vertex (dense, in order of
/// first appearance) and sets *num_components when non-null.
std::vector<VertexId> connected_components(const Graph& g,
                                           VertexId* num_components = nullptr);

bool is_connected(const Graph& g);

/// Degree histogram: result[d] = number of vertices with degree d.
std::vector<std::int64_t> degree_histogram(const Graph& g);

/// Least-squares slope of log(count) vs log(degree) over non-empty degree
/// bins >= min_degree; a power-law graph shows a negative slope around
/// -2..-3 (Faloutsos et al.). Returns 0 when fewer than 3 bins.
double power_law_exponent(const Graph& g, std::int32_t min_degree = 1);

}  // namespace massf
