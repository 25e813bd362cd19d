#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "lb/graph_prep.hpp"
#include "lb/hierarchical.hpp"
#include "lb/mapping.hpp"
#include "lb/profile.hpp"
#include "graph/union_find.hpp"
#include "partition/partition.hpp"
#include "topology/brite.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

Network test_network(std::int32_t routers = 400, std::uint64_t seed = 21) {
  BriteOptions o;
  o.num_routers = routers;
  o.num_hosts = routers / 4;
  o.seed = seed;
  return generate_flat(o);
}

MappingOptions base_opts(std::int32_t engines = 8) {
  MappingOptions o;
  o.num_engines = engines;
  o.cluster.num_engine_nodes = engines;
  o.seed = 3;
  return o;
}

TEST(MappingKindHelpers, NamesAndPredicates) {
  EXPECT_STREQ(mapping_kind_name(MappingKind::kHProf), "HPROF");
  EXPECT_STREQ(mapping_kind_name(MappingKind::kTop2), "TOP2");
  EXPECT_TRUE(mapping_uses_profile(MappingKind::kProf));
  EXPECT_TRUE(mapping_uses_profile(MappingKind::kHProf));
  EXPECT_FALSE(mapping_uses_profile(MappingKind::kHTop));
  EXPECT_TRUE(mapping_is_hierarchical(MappingKind::kHTop));
  EXPECT_FALSE(mapping_is_hierarchical(MappingKind::kProf2));
}

TEST(GraphPrep, TopWeightsAreIncidentBandwidth) {
  const Network net = test_network(100);
  const auto w = top_vertex_weights(net);
  ASSERT_EQ(static_cast<NodeId>(w.size()), net.num_routers);
  // Recompute for one router by hand.
  const NodeId r = 0;
  Weight expect = 0;
  for (const auto& inc : net.incident(r)) {
    expect += static_cast<Weight>(
        net.links[static_cast<std::size_t>(inc.link)].bandwidth_bps / 1e6);
  }
  EXPECT_EQ(w[0], std::max<Weight>(expect, 1));
}

TEST(GraphPrep, ProfWeightsFromProfile) {
  const Network net = test_network(100);
  TrafficProfile p;
  p.router_events.assign(static_cast<std::size_t>(net.num_routers), 0);
  p.router_events[7] = 999;
  const auto w = prof_vertex_weights(net, p);
  EXPECT_EQ(w[7], 1000);  // +1 floor
  EXPECT_EQ(w[8], 1);
}

TEST(GraphPrep, PlainEdgeWeightInverseLatency) {
  EXPECT_EQ(edge_weight_plain(milliseconds(1)), 1000);
  EXPECT_EQ(edge_weight_plain(microseconds(10)), 100000);
  EXPECT_GT(edge_weight_plain(microseconds(50)),
            edge_weight_plain(milliseconds(5)));
  // Clamped at 1 for huge latencies.
  EXPECT_EQ(edge_weight_plain(seconds(100)), 1);
}

TEST(GraphPrep, TunedWeightsAmplifySmallLatencies) {
  const std::vector<std::int64_t> lats{microseconds(10), milliseconds(1),
                                       milliseconds(10)};
  const auto plain0 = edge_weight_plain(lats[0]);
  const auto plain1 = edge_weight_plain(lats[1]);
  const auto tuned = edge_weights_tuned(lats, 2.0);
  // The tuned ratio between the 10us and 1ms edges must exceed the plain
  // ratio (that is the entire point of the TOP2/PROF2 adjustment).
  const double plain_ratio =
      static_cast<double>(plain0) / static_cast<double>(plain1);
  const double tuned_ratio =
      static_cast<double>(tuned[0]) / static_cast<double>(tuned[1]);
  EXPECT_GT(tuned_ratio, 2 * plain_ratio);
}

TEST(GraphPrep, PrepareGraphAlignsLatencies) {
  const Network net = test_network(200);
  MappingOptions opts = base_opts();
  std::vector<std::int64_t> lats;
  const Graph g =
      prepare_graph(net, MappingKind::kTop, nullptr, opts, &lats);
  ASSERT_EQ(static_cast<EdgeId>(lats.size()), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.edge_weight(e),
              edge_weight_plain(lats[static_cast<std::size_t>(e)]));
  }
}

TEST(Profile, FoldChargesHostsToAttachRouter) {
  const Network net = test_network(50);
  std::vector<std::uint64_t> events(net.nodes.size(), 0);
  const NodeId host = net.num_routers;  // first host
  const NodeId attach =
      net.nodes[static_cast<std::size_t>(host)].attach_router;
  events[static_cast<std::size_t>(host)] = 10;
  events[static_cast<std::size_t>(attach)] = 5;
  const TrafficProfile p = fold_profile(net, events);
  EXPECT_EQ(p.router_events[static_cast<std::size_t>(attach)], 15u);
}

TEST(Profile, NaiveMappingContiguousAndComplete) {
  const Network net = test_network(100);
  const auto m = naive_mapping(net, 7);
  ASSERT_EQ(static_cast<NodeId>(m.size()), net.num_routers);
  std::set<LpId> used(m.begin(), m.end());
  EXPECT_EQ(used.size(), 7u);
  // Contiguous blocks: non-decreasing.
  EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
}

TEST(Score, EsEcComposition) {
  const std::vector<Weight> balanced{10, 10, 10};
  const PartitionScore s =
      score_partition(milliseconds(2), milliseconds(1), balanced);
  EXPECT_NEAR(s.es, 0.5, 1e-12);
  EXPECT_NEAR(s.ec, 1.0, 1e-12);
  EXPECT_NEAR(s.e, 0.5, 1e-12);
}

TEST(Score, NegativeEsClampsToZeroE) {
  const std::vector<Weight> loads{10, 10};
  const PartitionScore s =
      score_partition(microseconds(100), milliseconds(1), loads);
  EXPECT_LT(s.es, 0);
  EXPECT_DOUBLE_EQ(s.e, 0);
}

TEST(Score, ImbalanceLowersEc) {
  const std::vector<Weight> skewed{30, 10, 10};
  const PartitionScore s =
      score_partition(milliseconds(2), milliseconds(1), skewed);
  EXPECT_NEAR(s.ec, (50.0 / 3) / 30.0, 1e-9);
}

class MappingSweep : public ::testing::TestWithParam<MappingKind> {};

TEST_P(MappingSweep, ProducesValidMapping) {
  const MappingKind kind = GetParam();
  const Network net = test_network(300);
  MappingOptions opts = base_opts(6);
  opts.kind = kind;

  TrafficProfile profile;
  profile.router_events.assign(static_cast<std::size_t>(net.num_routers), 1);
  for (std::size_t i = 0; i < profile.router_events.size(); i += 3) {
    profile.router_events[i] = 100;  // synthetic hot spots
  }
  const TrafficProfile* p =
      mapping_uses_profile(kind) ? &profile : nullptr;
  const Mapping m = compute_mapping(net, opts, p);

  ASSERT_EQ(static_cast<NodeId>(m.router_lp.size()), net.num_routers);
  std::set<LpId> used(m.router_lp.begin(), m.router_lp.end());
  EXPECT_EQ(used.size(), 6u) << "some engine got no routers";
  for (LpId lp : m.router_lp) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, 6);
  }
  EXPECT_GT(m.achieved_mll, 0);
  EXPECT_EQ(m.kind, kind);

  // achieved_mll is really the min cross-partition latency.
  SimTime mll = kSimTimeMax;
  for (const NetLink& l : net.links) {
    if (!net.is_router(l.a) || !net.is_router(l.b)) continue;
    if (m.router_lp[static_cast<std::size_t>(l.a)] !=
        m.router_lp[static_cast<std::size_t>(l.b)]) {
      mll = std::min(mll, l.latency);
    }
  }
  EXPECT_EQ(m.achieved_mll, mll);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MappingSweep,
                         ::testing::Values(MappingKind::kTop,
                                           MappingKind::kTop2,
                                           MappingKind::kProf,
                                           MappingKind::kProf2,
                                           MappingKind::kHTop,
                                           MappingKind::kHProf,
                                           MappingKind::kGreedy),
                         [](const auto& info) {
                           return mapping_kind_name(info.param);
                         });

TEST(GraphPrep, PlaceBoostsAttachmentRouters) {
  const Network net = test_network(100);
  const NodeId host = net.num_routers;
  const NodeId attach =
      net.nodes[static_cast<std::size_t>(host)].attach_router;
  const auto base = top_vertex_weights(net);
  const std::vector<NodeId> placement{host, host};  // duplicates allowed
  const auto w = place_vertex_weights(net, placement);
  // Two boosts of the 100 Mbps access link = +200.
  EXPECT_EQ(w[static_cast<std::size_t>(attach)],
            base[static_cast<std::size_t>(attach)] + 200 * 20);
  // Other routers untouched.
  for (NodeId r = 0; r < net.num_routers; ++r) {
    if (r != attach) {
      EXPECT_EQ(w[static_cast<std::size_t>(r)],
                base[static_cast<std::size_t>(r)]);
    }
  }
}

TEST(Mapping, PlaceProducesValidMapping) {
  const Network net = test_network(300);
  MappingOptions opts = base_opts(6);
  opts.kind = MappingKind::kPlace;
  std::vector<NodeId> placement;
  for (NodeId h = net.num_routers;
       h < static_cast<NodeId>(net.nodes.size()); h += 2) {
    placement.push_back(h);
  }
  const Mapping m = compute_mapping(net, opts, nullptr, placement);
  std::set<LpId> used(m.router_lp.begin(), m.router_lp.end());
  EXPECT_EQ(used.size(), 6u);
  EXPECT_STREQ(mapping_kind_name(m.kind), "PLACE");
}

TEST(Hierarchical, AchievedMllAtLeastTmll) {
  const Network net = test_network(500);
  MappingOptions opts = base_opts(8);
  opts.kind = MappingKind::kHTop;
  const Mapping m = compute_mapping(net, opts, nullptr);
  EXPECT_GT(m.tmll, 0);
  EXPECT_GE(m.achieved_mll, m.tmll)
      << "contraction must guarantee the worst-case MLL";
  // And the threshold itself exceeds the synchronization cost.
  EXPECT_GT(m.tmll, opts.cluster.sync_cost_time(8));
}

TEST(Hierarchical, BeatsFlatOnEfficiencyScore) {
  const Network net = test_network(500);
  MappingOptions opts = base_opts(8);

  opts.kind = MappingKind::kTop;
  const Mapping flat = compute_mapping(net, opts, nullptr);
  opts.kind = MappingKind::kHTop;
  const Mapping hier = compute_mapping(net, opts, nullptr);

  const SimTime sync = opts.cluster.sync_cost_time(8);
  // Es of the hierarchical mapping must be positive by construction; the
  // flat mapping typically cuts a short link.
  EXPECT_GT(hier.achieved_mll, sync);
  EXPECT_GE(hier.predicted_efficiency, flat.predicted_efficiency);
}

TEST(Hierarchical, SweepExploresThresholds) {
  const Network net = test_network(500);
  std::vector<std::int64_t> lats;
  MappingOptions opts = base_opts(8);
  Graph g = prepare_graph(net, MappingKind::kTop, nullptr, opts, &lats);
  const auto r = hierarchical_partition(g, lats, opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->candidates_tried, 1);
  EXPECT_GT(r->score.e, 0);
}

TEST(Hierarchical, FallsBackWhenTooFewClusters) {
  // A 4-vertex graph cannot produce 8 clusters above any threshold once
  // contraction merges everything; expect nullopt and flat fallback in
  // compute_mapping.
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 1);
  Graph g = b.build();
  const std::vector<std::int64_t> lats{microseconds(20), microseconds(20),
                                       microseconds(20)};
  MappingOptions opts = base_opts(8);
  const auto r = hierarchical_partition(g, lats, opts);
  EXPECT_FALSE(r.has_value());
}

TEST(Mapping, DeterministicForSeed) {
  const Network net = test_network(300);
  MappingOptions opts = base_opts(5);
  opts.kind = MappingKind::kHTop;
  const Mapping a = compute_mapping(net, opts, nullptr);
  const Mapping b = compute_mapping(net, opts, nullptr);
  EXPECT_EQ(a.router_lp, b.router_lp);
  EXPECT_EQ(a.tmll, b.tmll);
}

TEST(Mapping, SingleEngine) {
  const Network net = test_network(100);
  MappingOptions opts = base_opts(1);
  opts.kind = MappingKind::kTop;
  const Mapping m = compute_mapping(net, opts, nullptr);
  for (LpId lp : m.router_lp) EXPECT_EQ(lp, 0);
  EXPECT_EQ(m.edge_cut, 0);
}

/// A hand-built line network: `routers` routers chained with 1 ms links,
/// one host on router 0 (validate() requires every host attached).
Network tiny_line_network(std::int32_t routers) {
  Network net;
  net.num_routers = routers;
  net.nodes.assign(static_cast<std::size_t>(routers), NetNode{});
  for (std::int32_t r = 0; r + 1 < routers; ++r) {
    NetLink l;
    l.a = r;
    l.b = r + 1;
    l.latency = milliseconds(1);
    l.bandwidth_bps = 1e9;
    net.links.push_back(l);
  }
  NetNode host;
  host.kind = NodeKind::kHost;
  host.attach_router = 0;
  net.nodes.push_back(host);
  NetLink access;
  access.a = static_cast<NodeId>(net.nodes.size()) - 1;
  access.b = 0;
  access.latency = microseconds(10);
  access.bandwidth_bps = 1e9;
  net.links.push_back(access);
  net.build_adjacency();
  EXPECT_EQ(net.validate(), "");
  return net;
}

// ---- hierarchical Tmll sweep edge cases -----------------------------------

TEST(Hierarchical, MoreEnginesThanVertices) {
  // 4 routers cannot fill 8 engines: the sweep must not crash or emit
  // out-of-range LPs; every engine id stays in [0, num_engines) and every
  // router is assigned somewhere.
  const Network net = tiny_line_network(4);
  MappingOptions opts = base_opts(8);
  opts.kind = MappingKind::kHTop;
  const Mapping m = compute_mapping(net, opts, nullptr);
  ASSERT_EQ(static_cast<NodeId>(m.router_lp.size()), net.num_routers);
  for (LpId lp : m.router_lp) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, opts.num_engines);
  }
}

TEST(Hierarchical, ZeroTrafficProfile) {
  // A PROF profile from a run that processed nothing: every router weight
  // floors at +1, so HPROF must still produce a balanced, valid mapping
  // rather than dividing by a zero total weight.
  const Network net = test_network(200);
  TrafficProfile profile;
  profile.router_events.assign(static_cast<std::size_t>(net.num_routers), 0);
  MappingOptions opts = base_opts(4);
  opts.kind = MappingKind::kHProf;
  const Mapping m = compute_mapping(net, opts, &profile);
  ASSERT_EQ(static_cast<NodeId>(m.router_lp.size()), net.num_routers);
  std::set<LpId> used(m.router_lp.begin(), m.router_lp.end());
  EXPECT_GT(used.size(), 1u) << "all-equal weights must still spread load";
  for (LpId lp : m.router_lp) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, opts.num_engines);
  }
}

TEST(Hierarchical, StepLargerThanMax) {
  // tmll_step > tmll_max leaves the sweep zero candidate thresholds; the
  // mapping must fall back (flat refinement) instead of crashing or
  // returning an empty assignment.
  const Network net = test_network(300);
  MappingOptions opts = base_opts(8);
  opts.kind = MappingKind::kHTop;
  opts.tmll_step = milliseconds(50);
  opts.tmll_max = milliseconds(20);
  const Mapping m = compute_mapping(net, opts, nullptr);
  ASSERT_EQ(static_cast<NodeId>(m.router_lp.size()), net.num_routers);
  for (LpId lp : m.router_lp) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, opts.num_engines);
  }
}

// ---- parallel Tmll sweep ----------------------------------------------------

// The sweep as one loop in Tmll order, keeping the first strict maximum of
// E: the reference the pooled sweep must reproduce exactly.
std::optional<HierarchicalResult> sequential_sweep(
    const Graph& g, std::span<const std::int64_t> latencies,
    const MappingOptions& opts) {
  const SimTime sync = opts.cluster.sync_cost_time(opts.num_engines);
  SimTime tmll = (sync / opts.tmll_step + 1) * opts.tmll_step;
  std::vector<EdgeId> order(static_cast<std::size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return latencies[static_cast<std::size_t>(a)] <
           latencies[static_cast<std::size_t>(b)];
  });
  UnionFind uf(g.num_vertices());
  std::size_t cursor = 0;
  std::optional<HierarchicalResult> best;
  std::int32_t tried = 0;
  for (; tmll <= opts.tmll_max; tmll += opts.tmll_step) {
    while (cursor < order.size() &&
           latencies[static_cast<std::size_t>(order[cursor])] < tmll) {
      const EdgeId e = order[cursor++];
      uf.unite(g.edge_u(e), g.edge_v(e));
    }
    if (uf.num_sets() < opts.num_engines) break;
    const std::vector<VertexId> cluster = uf.compress();
    std::vector<EdgeId> origin;
    const Graph dumped =
        contract(g, cluster, uf.num_sets(), latencies, &origin);
    std::vector<std::int64_t> dumped_lat(origin.size());
    for (std::size_t i = 0; i < origin.size(); ++i) {
      dumped_lat[i] = latencies[static_cast<std::size_t>(origin[i])];
    }
    PartitionOptions popt;
    popt.num_parts = opts.num_engines;
    popt.imbalance_tolerance = opts.imbalance_tolerance;
    popt.seed = opts.seed;
    const PartitionResult pr = partition_graph(dumped, popt);
    ++tried;
    SimTime mll = min_cut_edge_aux(dumped, pr.part, dumped_lat);
    if (mll == std::numeric_limits<std::int64_t>::max()) mll = opts.tmll_max;
    const PartitionScore score = score_partition(mll, sync, pr.part_weights);
    if (!best || score.e > best->score.e) {
      HierarchicalResult r;
      r.part.resize(static_cast<std::size_t>(g.num_vertices()));
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        r.part[static_cast<std::size_t>(v)] = pr.part[static_cast<std::size_t>(
            cluster[static_cast<std::size_t>(v)])];
      }
      r.tmll = tmll;
      r.achieved_mll = mll;
      r.score = score;
      r.edge_cut = pr.edge_cut;
      r.balance = pr.balance(dumped.total_vertex_weight());
      best = std::move(r);
    }
  }
  if (best) best->candidates_tried = tried;
  return best;
}

void expect_same(const std::optional<HierarchicalResult>& got,
                 const std::optional<HierarchicalResult>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->part, want->part);
  EXPECT_EQ(got->tmll, want->tmll);
  EXPECT_EQ(got->achieved_mll, want->achieved_mll);
  EXPECT_EQ(got->score.es, want->score.es);
  EXPECT_EQ(got->score.ec, want->score.ec);
  EXPECT_EQ(got->score.e, want->score.e);
  EXPECT_EQ(got->edge_cut, want->edge_cut);
  EXPECT_EQ(got->balance, want->balance);
  EXPECT_EQ(got->candidates_tried, want->candidates_tried);
}

TEST(Hierarchical, ParallelSweepMatchesSequential) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const Network net = test_network(300, seed);
    TrafficProfile profile;
    Rng rng(seed);
    profile.router_events.resize(static_cast<std::size_t>(net.num_routers));
    for (std::uint64_t& events : profile.router_events) {
      events = 1 + rng.uniform(1000);
    }
    for (const std::int32_t engines : {2, 8, 24}) {
      for (const MappingKind kind : {MappingKind::kHTop, MappingKind::kHProf}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(engines) + " engines, " +
                     mapping_kind_name(kind));
        MappingOptions opts = base_opts(engines);
        opts.kind = kind;
        std::vector<std::int64_t> lats;
        const Graph g = prepare_graph(
            net, kind, kind == MappingKind::kHProf ? &profile : nullptr, opts,
            &lats);
        const auto want = sequential_sweep(g, lats, opts);
        ASSERT_TRUE(want.has_value());
        expect_same(hierarchical_partition(g, lats, opts), want);
      }
    }
  }

  // Plateaus of candidates with one contraction, hence one partition and
  // one E: groups of 5 vertices joined by 50 us links, 4 groups per
  // supergroup joined by 1 ms links, 16 supergroups joined by 5 ms links.
  // Every Tmll in (0.05, 1] ms contracts the groups and every one in
  // (1, 5] ms the supergroups; the lowest Tmll of the best plateau wins.
  constexpr VertexId kGroup = 5, kSuper = 20, kVertices = 320;
  GraphBuilder b(kVertices);
  const auto latency = [&](VertexId u, VertexId v) -> std::int64_t {
    if (u / kGroup == v / kGroup) return microseconds(50);
    if (u / kSuper == v / kSuper) return milliseconds(1);
    return milliseconds(5);
  };
  for (VertexId v = 0; v < kVertices; ++v) {
    if ((v + 1) % kGroup != 0) b.add_edge(v, v + 1, 100);  // group chain
    if (v % kGroup == 0) {
      const VertexId super = v / kSuper * kSuper;
      b.add_edge(v, super + (v - super + kGroup) % kSuper, 10);  // group ring
    }
    if (v % kSuper == 0) {
      b.add_edge(v, (v + kSuper) % kVertices, 2);      // supergroup ring
      b.add_edge(v, (v + 3 * kSuper) % kVertices, 2);  // and chords
    }
  }
  const Graph g = b.build();
  std::vector<std::int64_t> lats(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    lats[static_cast<std::size_t>(e)] = latency(g.edge_u(e), g.edge_v(e));
  }
  for (const std::int32_t engines : {2, 8}) {
    SCOPED_TRACE(std::to_string(engines) + " engines on the plateau graph");
    const MappingOptions opts = base_opts(engines);
    const TmllSweep sweep = list_tmll_candidates(g, lats, opts);
    ASSERT_GT(sweep.candidates.size(), 2u);
    const auto got = hierarchical_partition(g, lats, opts);
    expect_same(got, sequential_sweep(g, lats, opts));
    ASSERT_TRUE(got.has_value());
    const auto it = std::find_if(
        sweep.candidates.begin(), sweep.candidates.end(),
        [&](const TmllCandidate& c) { return c.tmll == got->tmll; });
    ASSERT_NE(it, sweep.candidates.end());
    const auto win = static_cast<std::size_t>(it - sweep.candidates.begin());
    ASSERT_LT(win + 1, sweep.candidates.size());
    EXPECT_EQ(sweep.candidates[win + 1].contracted,
              sweep.candidates[win].contracted)
        << "the winner's plateau has one candidate: no tie was broken";
    EXPECT_EQ(evaluate_tmll_candidate(g, lats, opts, sweep, win + 1).score.e,
              got->score.e);
    if (win > 0) {
      EXPECT_NE(sweep.candidates[win - 1].contracted,
                sweep.candidates[win].contracted)
          << "a lower Tmll with the same contraction lost the tie";
    }
  }
}

}  // namespace
}  // namespace massf
