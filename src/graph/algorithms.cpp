#include "graph/algorithms.hpp"

#include <cmath>

#include "util/check.hpp"

namespace massf {

std::vector<VertexId> connected_components(const Graph& g,
                                           VertexId* num_components) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> comp(static_cast<std::size_t>(n), kInvalidVertex);
  VertexId next = 0;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (comp[static_cast<std::size_t>(s)] != kInvalidVertex) continue;
    const VertexId c = next++;
    comp[static_cast<std::size_t>(s)] = c;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId u : g.neighbors(v)) {
        if (comp[static_cast<std::size_t>(u)] == kInvalidVertex) {
          comp[static_cast<std::size_t>(u)] = c;
          stack.push_back(u);
        }
      }
    }
  }
  if (num_components != nullptr) *num_components = next;
  return comp;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  VertexId nc = 0;
  connected_components(g, &nc);
  return nc == 1;
}

std::vector<std::int64_t> degree_histogram(const Graph& g) {
  std::vector<std::int64_t> hist;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto d = static_cast<std::size_t>(g.degree(v));
    if (d >= hist.size()) hist.resize(d + 1, 0);
    ++hist[d];
  }
  return hist;
}

double power_law_exponent(const Graph& g, std::int32_t min_degree) {
  const auto hist = degree_histogram(g);
  std::vector<std::pair<double, double>> pts;  // (log d, log count)
  for (std::size_t d = static_cast<std::size_t>(std::max(min_degree, 1));
       d < hist.size(); ++d) {
    if (hist[d] > 0) {
      pts.emplace_back(std::log(static_cast<double>(d)),
                       std::log(static_cast<double>(hist[d])));
    }
  }
  if (pts.size() < 3) return 0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (auto [x, y] : pts) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(pts.size());
  const double denom = n * sxx - sx * sx;
  if (denom == 0) return 0;
  return (n * sxy - sx * sy) / denom;
}

}  // namespace massf
