#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algorithms.hpp"
#include "topology/brite.hpp"
#include "topology/mabrite.hpp"

namespace massf {
namespace {

BriteOptions small_flat() {
  BriteOptions o;
  o.num_routers = 300;
  o.num_hosts = 100;
  o.seed = 5;
  return o;
}

MaBriteOptions small_multi() {
  MaBriteOptions o;
  o.num_as = 12;
  o.routers_per_as = 25;
  o.num_hosts = 120;
  o.seed = 5;
  return o;
}

TEST(LatencyModel, DistanceAndFloor) {
  EXPECT_EQ(latency_for_distance(0), microseconds(10));
  // 1243 miles at ~124274 mi/s = ~10 ms.
  const SimTime t = latency_for_distance(1242.74);
  EXPECT_NEAR(to_milliseconds(t), 10.0, 0.1);
  EXPECT_GT(latency_for_distance(2000), latency_for_distance(1000));
}

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(distance_miles(0, 0, 3, 4), 5.0);
}

TEST(BriteFlat, CountsAndValidity) {
  const Network net = generate_flat(small_flat());
  EXPECT_EQ(net.num_routers, 300);
  EXPECT_EQ(net.num_hosts(), 100);
  EXPECT_EQ(net.validate(), "");
  EXPECT_EQ(net.num_as(), 1);
}

TEST(BriteFlat, RouterGraphConnected) {
  const Network net = generate_flat(small_flat());
  EXPECT_TRUE(is_connected(net.router_graph()));
}

TEST(BriteFlat, HostsAttachedByOneLink) {
  const Network net = generate_flat(small_flat());
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    EXPECT_EQ(net.incident(h).size(), 1u);
    const NodeId r = net.nodes[static_cast<std::size_t>(h)].attach_router;
    EXPECT_TRUE(net.is_router(r));
  }
}

TEST(BriteFlat, Deterministic) {
  const Network a = generate_flat(small_flat());
  const Network b = generate_flat(small_flat());
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].a, b.links[i].a);
    EXPECT_EQ(a.links[i].b, b.links[i].b);
    EXPECT_EQ(a.links[i].latency, b.links[i].latency);
  }
}

TEST(BriteFlat, HeavyTailedDegrees) {
  BriteOptions o = small_flat();
  o.num_routers = 2000;
  const Network net = generate_flat(o);
  const Graph g = net.router_graph();
  const auto hist = degree_histogram(g);
  // A power-law graph has hubs: max degree far above the mean (~2m = 4).
  EXPECT_GT(hist.size(), 20u);
  EXPECT_LT(power_law_exponent(g, 2), -1.0);
}

TEST(BriteFlat, LocalityShortensLinks) {
  BriteOptions local = small_flat();
  local.num_routers = 1000;
  local.locality_miles = 100;
  BriteOptions nonlocal = local;
  nonlocal.locality_miles = 0;

  const auto mean_latency = [](const Network& net) {
    double sum = 0;
    int n = 0;
    for (const NetLink& l : net.links) {
      if (net.is_router(l.a) && net.is_router(l.b)) {
        sum += to_seconds(l.latency);
        ++n;
      }
    }
    return sum / n;
  };
  EXPECT_LT(mean_latency(generate_flat(local)),
            0.6 * mean_latency(generate_flat(nonlocal)));
}

TEST(BriteFlat, MinLinkLatencyRespectsFloor) {
  const Network net = generate_flat(small_flat());
  EXPECT_GE(net.min_link_latency(), microseconds(10));
}

TEST(BriteFlat, RouterGraphLatenciesAligned) {
  const Network net = generate_flat(small_flat());
  std::vector<std::int64_t> lat;
  std::vector<LinkId> links;
  const Graph g = net.router_graph(&lat, &links);
  ASSERT_EQ(static_cast<EdgeId>(lat.size()), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NetLink& l = net.links[static_cast<std::size_t>(
        links[static_cast<std::size_t>(e)])];
    EXPECT_EQ(lat[static_cast<std::size_t>(e)], l.latency);
    const auto u = g.edge_u(e), v = g.edge_v(e);
    EXPECT_TRUE((l.a == u && l.b == v) || (l.a == v && l.b == u));
  }
}

TEST(MaBrite, ValidNetwork) {
  const Network net = generate_multi_as(small_multi());
  EXPECT_EQ(net.validate(), "");
  EXPECT_EQ(net.num_as(), 12);
  EXPECT_EQ(net.num_routers, 12 * 25);
  EXPECT_EQ(net.num_hosts(), 120);
}

TEST(MaBrite, WholeRouterGraphConnected) {
  const Network net = generate_multi_as(small_multi());
  EXPECT_TRUE(is_connected(net.router_graph()));
}

TEST(MaBrite, CoreCliqueExists) {
  const Network net = generate_multi_as(small_multi());
  std::vector<AsId> cores;
  for (AsId a = 0; a < net.num_as(); ++a) {
    if (net.as_info[static_cast<std::size_t>(a)].cls == AsClass::kCore) {
      cores.push_back(a);
    }
  }
  EXPECT_GE(cores.size(), 3u);
  std::set<std::pair<AsId, AsId>> adj;
  for (const AsAdjacency& e : net.as_adjacency) {
    adj.insert({std::min(e.as_a, e.as_b), std::max(e.as_a, e.as_b)});
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    for (std::size_t j = i + 1; j < cores.size(); ++j) {
      EXPECT_TRUE(adj.count({std::min(cores[i], cores[j]),
                             std::max(cores[i], cores[j])}))
          << "cores " << cores[i] << " and " << cores[j] << " not adjacent";
    }
  }
}

TEST(MaBrite, CorePairsArePeers) {
  const Network net = generate_multi_as(small_multi());
  for (const AsAdjacency& e : net.as_adjacency) {
    const AsClass ca = net.as_info[static_cast<std::size_t>(e.as_a)].cls;
    const AsClass cb = net.as_info[static_cast<std::size_t>(e.as_b)].cls;
    if (ca == cb) {
      EXPECT_EQ(e.rel_ab, AsRel::kPeer);
    } else {
      EXPECT_NE(e.rel_ab, AsRel::kPeer);
    }
  }
}

TEST(MaBrite, ProviderIsHigherClass) {
  const Network net = generate_multi_as(small_multi());
  const auto rank = [](AsClass c) {
    return c == AsClass::kCore ? 2 : (c == AsClass::kRegional ? 1 : 0);
  };
  for (const AsAdjacency& e : net.as_adjacency) {
    const int ra = rank(net.as_info[static_cast<std::size_t>(e.as_a)].cls);
    const int rb = rank(net.as_info[static_cast<std::size_t>(e.as_b)].cls);
    if (e.rel_ab == AsRel::kCustomer) {
      EXPECT_GT(ra, rb);
    }
    if (e.rel_ab == AsRel::kProvider) {
      EXPECT_LT(ra, rb);
    }
  }
}

TEST(MaBrite, EveryNonCoreReachesCoreViaProviders) {
  const Network net = generate_multi_as(small_multi());
  std::vector<std::vector<AsId>> providers(
      static_cast<std::size_t>(net.num_as()));
  for (const AsAdjacency& e : net.as_adjacency) {
    if (e.rel_ab == AsRel::kProvider) {
      providers[static_cast<std::size_t>(e.as_a)].push_back(e.as_b);
    } else if (e.rel_ab == AsRel::kCustomer) {
      providers[static_cast<std::size_t>(e.as_b)].push_back(e.as_a);
    }
  }
  for (AsId a = 0; a < net.num_as(); ++a) {
    if (net.as_info[static_cast<std::size_t>(a)].cls == AsClass::kCore) {
      continue;
    }
    std::vector<char> seen(static_cast<std::size_t>(net.num_as()), 0);
    std::vector<AsId> stack{a};
    seen[static_cast<std::size_t>(a)] = 1;
    bool ok = false;
    while (!stack.empty() && !ok) {
      const AsId v = stack.back();
      stack.pop_back();
      for (AsId p : providers[static_cast<std::size_t>(v)]) {
        if (net.as_info[static_cast<std::size_t>(p)].cls == AsClass::kCore) {
          ok = true;
          break;
        }
        if (!seen[static_cast<std::size_t>(p)]) {
          seen[static_cast<std::size_t>(p)] = 1;
          stack.push_back(p);
        }
      }
    }
    EXPECT_TRUE(ok) << "AS " << a << " has no provider path to a core";
  }
}

TEST(MaBrite, HostsOnlyInStubAses) {
  const Network net = generate_multi_as(small_multi());
  bool has_stub = false;
  for (const AsInfo& info : net.as_info) has_stub |= info.cls == AsClass::kStub;
  ASSERT_TRUE(has_stub);
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    const AsId a = net.nodes[static_cast<std::size_t>(h)].as_id;
    EXPECT_EQ(net.as_info[static_cast<std::size_t>(a)].cls, AsClass::kStub);
  }
}

TEST(MaBrite, InterAsLinksMarked) {
  const Network net = generate_multi_as(small_multi());
  for (const AsAdjacency& adj : net.as_adjacency) {
    const NetLink& l = net.links[static_cast<std::size_t>(adj.link)];
    EXPECT_TRUE(l.inter_as);
    const AsId aa = net.nodes[static_cast<std::size_t>(l.a)].as_id;
    const AsId ab = net.nodes[static_cast<std::size_t>(l.b)].as_id;
    EXPECT_TRUE((aa == adj.as_a && ab == adj.as_b) ||
                (aa == adj.as_b && ab == adj.as_a));
  }
  // And no intra-AS link is marked inter-AS.
  for (const NetLink& l : net.links) {
    if (!net.is_router(l.a) || !net.is_router(l.b)) continue;
    const AsId aa = net.nodes[static_cast<std::size_t>(l.a)].as_id;
    const AsId ab = net.nodes[static_cast<std::size_t>(l.b)].as_id;
    EXPECT_EQ(l.inter_as, aa != ab);
  }
}

TEST(MaBrite, Deterministic) {
  const Network a = generate_multi_as(small_multi());
  const Network b = generate_multi_as(small_multi());
  EXPECT_EQ(a.links.size(), b.links.size());
  EXPECT_EQ(a.as_adjacency.size(), b.as_adjacency.size());
  for (std::size_t i = 0; i < a.as_adjacency.size(); ++i) {
    EXPECT_EQ(a.as_adjacency[i].as_a, b.as_adjacency[i].as_a);
    EXPECT_EQ(a.as_adjacency[i].rel_ab, b.as_adjacency[i].rel_ab);
  }
}

}  // namespace
}  // namespace massf
