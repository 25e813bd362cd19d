#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 3);
  b.add_edge(0, 2, 5);
  return b.build();
}

TEST(GraphBuilder, BasicCounts) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.total_vertex_weight(), 3);  // default weight 1
  EXPECT_EQ(g.degree(0), 2);
}

TEST(GraphBuilder, DuplicateEdgesMerge) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);  // same undirected edge
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge_weight(0), 5);
}

TEST(GraphBuilder, SelfLoopsDropped) {
  GraphBuilder b(2);
  b.add_edge(0, 0, 9);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphBuilder, VertexWeights) {
  GraphBuilder b(2);
  b.set_vertex_weight(0, 10);
  b.set_vertex_weight(1, 20);
  const Graph g = b.build();
  EXPECT_EQ(g.vertex_weight(0), 10);
  EXPECT_EQ(g.total_vertex_weight(), 30);
}

TEST(Graph, CsrSymmetric) {
  const Graph g = triangle();
  // Every edge appears in both endpoints' adjacency with the same weight.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const VertexId u = g.edge_u(e), v = g.edge_v(e);
    bool found_uv = false, found_vu = false;
    auto nbrs = g.neighbors(u);
    auto ws = g.arc_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == v && ws[i] == g.edge_weight(e)) found_uv = true;
    }
    nbrs = g.neighbors(v);
    ws = g.arc_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == u && ws[i] == g.edge_weight(e)) found_vu = true;
    }
    EXPECT_TRUE(found_uv && found_vu);
  }
}

TEST(Graph, IncidentWeight) {
  const Graph g = triangle();
  EXPECT_EQ(g.incident_weight(0), 7);  // 2 + 5
  EXPECT_EQ(g.incident_weight(1), 5);  // 2 + 3
}

TEST(Graph, SetVertexWeights) {
  Graph g = triangle();
  g.set_vertex_weights({4, 5, 6});
  EXPECT_EQ(g.vertex_weight(2), 6);
  EXPECT_EQ(g.total_vertex_weight(), 15);
}

TEST(Graph, SetEdgeWeightsUpdatesArcs) {
  Graph g = triangle();
  std::vector<Weight> w(static_cast<std::size_t>(g.num_edges()), 7);
  g.set_edge_weights(std::move(w));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (Weight aw : g.arc_weights(v)) EXPECT_EQ(aw, 7);
  }
}

TEST(Contract, MergesClusters) {
  // Path 0-1-2-3; contract {0,1} and {2,3}.
  GraphBuilder b(4);
  b.set_vertex_weight(0, 1);
  b.set_vertex_weight(1, 2);
  b.set_vertex_weight(2, 3);
  b.set_vertex_weight(3, 4);
  b.add_edge(0, 1, 10);
  b.add_edge(1, 2, 20);
  b.add_edge(2, 3, 30);
  const Graph g = b.build();

  const std::vector<VertexId> cluster{0, 0, 1, 1};
  const Graph c = contract(g, cluster, 2);
  EXPECT_EQ(c.num_vertices(), 2);
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_EQ(c.vertex_weight(0), 3);
  EXPECT_EQ(c.vertex_weight(1), 7);
  EXPECT_EQ(c.edge_weight(0), 20);  // only the 1-2 edge crosses
}

TEST(Contract, ParallelEdgesSum) {
  // Square 0-1-2-3-0; contract {0,1} and {2,3} -> two parallel cross edges.
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 5);
  b.add_edge(2, 3, 1);
  b.add_edge(3, 0, 7);
  const Graph g = b.build();
  const std::vector<VertexId> cluster{0, 0, 1, 1};
  const Graph c = contract(g, cluster, 2);
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_EQ(c.edge_weight(0), 12);
}

TEST(Contract, EdgeOriginPicksMinAux) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);  // aux 50
  b.add_edge(3, 0, 1);  // aux 10  (edge ids assigned after sorting by (u,v))
  b.add_edge(2, 3, 1);
  const Graph g = b.build();
  // Find per-edge aux by endpoints.
  std::vector<std::int64_t> aux(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto u = g.edge_u(e), v = g.edge_v(e);
    if ((u == 1 && v == 2) || (u == 2 && v == 1)) {
      aux[static_cast<std::size_t>(e)] = 50;
    } else if ((u == 0 && v == 3) || (u == 3 && v == 0)) {
      aux[static_cast<std::size_t>(e)] = 10;
    } else {
      aux[static_cast<std::size_t>(e)] = 99;
    }
  }
  const std::vector<VertexId> cluster{0, 0, 1, 1};
  std::vector<EdgeId> origin;
  const Graph c = contract(g, cluster, 2, aux, &origin);
  ASSERT_EQ(c.num_edges(), 1);
  ASSERT_EQ(origin.size(), 1u);
  EXPECT_EQ(aux[static_cast<std::size_t>(origin[0])], 10);
}

TEST(UnionFind, BasicMerge) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_EQ(uf.num_sets(), 3);
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
}

TEST(UnionFind, CompressIsDense) {
  UnionFind uf(6);
  uf.unite(4, 5);
  uf.unite(0, 2);
  const auto label = uf.compress();
  EXPECT_EQ(label.size(), 6u);
  const auto max_label = *std::max_element(label.begin(), label.end());
  EXPECT_EQ(max_label, uf.num_sets() - 1);
  EXPECT_EQ(label[0], label[2]);
  EXPECT_EQ(label[4], label[5]);
  EXPECT_NE(label[0], label[4]);
}

TEST(ConnectedComponents, TwoIslands) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();
  VertexId nc = 0;
  const auto comp = connected_components(g, &nc);
  EXPECT_EQ(nc, 2);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_FALSE(is_connected(g));
}

TEST(ConnectedComponents, EmptyGraphConnected) {
  GraphBuilder b(0);
  EXPECT_TRUE(is_connected(b.build()));
}

TEST(DegreeHistogram, Counts) {
  const Graph g = triangle();
  const auto h = degree_histogram(g);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[2], 3);  // all three vertices have degree 2
}

TEST(PowerLawExponent, NegativeForBaGraph) {
  // Preferential-attachment graph has a heavy-tailed degree distribution.
  Rng rng(11);
  const VertexId n = 2000;
  GraphBuilder b(n);
  std::vector<VertexId> arcs{0, 1};
  b.add_edge(0, 1);
  for (VertexId v = 2; v < n; ++v) {
    const VertexId t = arcs[rng.uniform(arcs.size())];
    b.add_edge(v, t);
    arcs.push_back(v);
    arcs.push_back(t);
  }
  const Graph g = b.build();
  const double slope = power_law_exponent(g);
  EXPECT_LT(slope, -1.0);
}

}  // namespace
}  // namespace massf
