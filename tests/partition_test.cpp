#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "partition/fm.hpp"
#include "partition/matching.hpp"
#include "partition/greedy_kcluster.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

// Ring of n vertices with unit weights, plus random chords.
Graph random_graph(VertexId n, std::int32_t chords, std::uint64_t seed,
                   Weight max_vweight = 1) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    b.add_edge(v, (v + 1) % n, static_cast<Weight>(1 + rng.uniform(9)));
    if (max_vweight > 1) {
      b.set_vertex_weight(
          v, static_cast<Weight>(1 + rng.uniform(
                 static_cast<std::uint64_t>(max_vweight))));
    }
  }
  for (std::int32_t c = 0; c < chords; ++c) {
    const auto u = static_cast<VertexId>(rng.uniform(n));
    const auto v = static_cast<VertexId>(rng.uniform(n));
    if (u != v) b.add_edge(u, v, static_cast<Weight>(1 + rng.uniform(9)));
  }
  return b.build();
}

TEST(HeavyEdgeMatching, ShrinksGraph) {
  const Graph g = random_graph(200, 100, 1);
  Rng rng(2);
  const MatchingResult m = heavy_edge_matching(g, rng);
  EXPECT_LT(m.num_coarse, g.num_vertices());
  EXPECT_GE(m.num_coarse, g.num_vertices() / 2);
  // Every coarse vertex has 1 or 2 members.
  std::vector<int> members(static_cast<std::size_t>(m.num_coarse), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ++members[static_cast<std::size_t>(
        m.coarse_map[static_cast<std::size_t>(v)])];
  }
  for (int c : members) {
    EXPECT_GE(c, 1);
    EXPECT_LE(c, 2);
  }
}

TEST(FmRefine, ReducesCutOfBadBisection) {
  // Two cliques joined by one edge; a deliberately interleaved assignment.
  GraphBuilder b(8);
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) {
      b.add_edge(i, j, 10);
      b.add_edge(i + 4, j + 4, 10);
    }
  }
  b.add_edge(0, 4, 1);
  const Graph g = b.build();

  std::vector<VertexId> part{0, 1, 0, 1, 0, 1, 0, 1};
  FmOptions opts;
  opts.target0 = g.total_vertex_weight() / 2;
  opts.tolerance = 1.1;
  const Weight cut = fm_refine_bisection(g, part, opts);
  EXPECT_EQ(cut, 1);  // optimal: split between the cliques
  EXPECT_EQ(cut, compute_edge_cut(g, part));
}

TEST(FmRefine, RespectsBalance) {
  const Graph g = random_graph(100, 50, 3);
  std::vector<VertexId> part(100);
  for (VertexId v = 0; v < 100; ++v) part[static_cast<std::size_t>(v)] = v % 2;
  FmOptions opts;
  opts.target0 = g.total_vertex_weight() / 2;
  opts.tolerance = 1.05;
  fm_refine_bisection(g, part, opts);
  const auto pw = compute_part_weights(g, part, 2);
  const double ideal = static_cast<double>(g.total_vertex_weight()) / 2;
  EXPECT_LE(static_cast<double>(pw[0]), ideal * 1.06);
  EXPECT_LE(static_cast<double>(pw[1]), ideal * 1.06);
}

struct KwayCase {
  VertexId n;
  std::int32_t chords;
  std::int32_t k;
  // Fills what would be padding. gtest names each case after the
  // parameter's raw bytes, and uninitialized padding made those names (and
  // the ctest names derived from them) change from run to run.
  std::int32_t zero;
  Weight max_vweight;
};

KwayCase kway_case(VertexId n, std::int32_t chords, std::int32_t k,
                   Weight max_vweight) {
  return KwayCase{n, chords, k, 0, max_vweight};
}

class PartitionSweep : public ::testing::TestWithParam<KwayCase> {};

TEST_P(PartitionSweep, BalancedCoveringPartition) {
  const KwayCase c = GetParam();
  const Graph g = random_graph(c.n, c.chords, 17, c.max_vweight);
  PartitionOptions opts;
  opts.num_parts = c.k;
  opts.imbalance_tolerance = 1.10;
  opts.seed = 5;
  const PartitionResult r = partition_graph(g, opts);

  ASSERT_EQ(static_cast<VertexId>(r.part.size()), g.num_vertices());
  // Every vertex assigned to a valid part.
  for (VertexId p : r.part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, c.k);
  }
  // Reported weights and cut are consistent with the assignment.
  EXPECT_EQ(r.part_weights, compute_part_weights(g, r.part, c.k));
  EXPECT_EQ(r.edge_cut, compute_edge_cut(g, r.part));
  // All parts non-empty.
  for (Weight w : r.part_weights) EXPECT_GT(w, 0);
  // Balance within (slightly padded) tolerance. Multilevel partitioners can
  // overshoot slightly on tiny graphs with heavy vertices.
  const double max_unit = c.max_vweight > 1 ? 1.35 : 1.15;
  EXPECT_LE(r.balance(g.total_vertex_weight()), max_unit)
      << "n=" << c.n << " k=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PartitionSweep,
    ::testing::Values(kway_case(64, 32, 2, 1), kway_case(64, 32, 3, 1),
                      kway_case(200, 100, 4, 1), kway_case(200, 100, 7, 1),
                      kway_case(500, 400, 8, 1), kway_case(500, 400, 16, 1),
                      kway_case(1000, 800, 13, 1), kway_case(300, 200, 5, 50),
                      kway_case(1000, 500, 16, 20)));

TEST(Partition, DeterministicForSeed) {
  const Graph g = random_graph(300, 200, 7);
  PartitionOptions opts;
  opts.num_parts = 6;
  opts.seed = 99;
  const PartitionResult a = partition_graph(g, opts);
  const PartitionResult b = partition_graph(g, opts);
  EXPECT_EQ(a.part, b.part);
  EXPECT_EQ(a.edge_cut, b.edge_cut);
}

TEST(Partition, SinglePartTrivial) {
  const Graph g = random_graph(50, 20, 8);
  PartitionOptions opts;
  opts.num_parts = 1;
  const PartitionResult r = partition_graph(g, opts);
  EXPECT_EQ(r.edge_cut, 0);
  for (VertexId p : r.part) EXPECT_EQ(p, 0);
}

TEST(Partition, BeatsRandomAssignmentOnCut) {
  const Graph g = random_graph(400, 100, 9);
  PartitionOptions opts;
  opts.num_parts = 4;
  const PartitionResult r = partition_graph(g, opts);

  Rng rng(10);
  Weight random_cut_total = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    std::vector<VertexId> rand_part(static_cast<std::size_t>(g.num_vertices()));
    for (auto& p : rand_part) p = static_cast<VertexId>(rng.uniform(4));
    random_cut_total += compute_edge_cut(g, rand_part);
  }
  EXPECT_LT(r.edge_cut, random_cut_total / trials / 2);
}

TEST(Partition, TwoCliquesOptimal) {
  GraphBuilder b(20);
  for (VertexId i = 0; i < 10; ++i) {
    for (VertexId j = i + 1; j < 10; ++j) {
      b.add_edge(i, j, 5);
      b.add_edge(i + 10, j + 10, 5);
    }
  }
  b.add_edge(0, 10, 1);
  const Graph g = b.build();
  PartitionOptions opts;
  opts.num_parts = 2;
  const PartitionResult r = partition_graph(g, opts);
  EXPECT_EQ(r.edge_cut, 1);
}

TEST(GreedyKCluster, CoversAllVertices) {
  const Graph g = random_graph(200, 100, 4);
  Rng rng(9);
  const auto part = greedy_k_cluster(g, 7, rng);
  std::vector<int> sizes(7, 0);
  for (VertexId p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 7);
    ++sizes[static_cast<std::size_t>(p)];
  }
  for (int s : sizes) EXPECT_GT(s, 0);
}

TEST(GreedyKCluster, DeterministicForSeed) {
  const Graph g = random_graph(150, 60, 5);
  Rng a(3), b(3);
  EXPECT_EQ(greedy_k_cluster(g, 5, a), greedy_k_cluster(g, 5, b));
}

TEST(GreedyKCluster, HandlesDisconnectedGraph) {
  GraphBuilder builder(10);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);  // vertices 4..9 isolated
  const Graph g = builder.build();
  Rng rng(1);
  const auto part = greedy_k_cluster(g, 3, rng);
  for (VertexId p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

TEST(GreedyKCluster, WorseCutThanMultilevel) {
  // The whole point of the baseline: unweighted region growing produces a
  // worse weighted cut than the multilevel partitioner.
  const Graph g = random_graph(500, 400, 6);
  Rng rng(2);
  const auto greedy = greedy_k_cluster(g, 8, rng);
  PartitionOptions opts;
  opts.num_parts = 8;
  const PartitionResult ml = partition_graph(g, opts);
  EXPECT_GT(compute_edge_cut(g, greedy), ml.edge_cut);
}

TEST(MinCutEdgeAux, FindsMinimum) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 1);
  const Graph g = b.build();
  const std::vector<VertexId> part{0, 0, 1, 1};
  // Edge ids sorted by (u, v): (0,1), (1,2), (2,3).
  const std::vector<std::int64_t> aux{100, 42, 7};
  EXPECT_EQ(min_cut_edge_aux(g, part, aux), 42);
}

TEST(MinCutEdgeAux, NoCutReturnsMax) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  const std::vector<VertexId> part{0, 0};
  const std::vector<std::int64_t> aux{5};
  EXPECT_EQ(min_cut_edge_aux(g, part, aux),
            std::numeric_limits<std::int64_t>::max());
}

}  // namespace
}  // namespace massf
