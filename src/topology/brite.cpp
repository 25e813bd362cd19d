#include "topology/brite.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace massf {
namespace {

// Number of degree-proportional candidates examined per attachment when the
// locality bias is active. Candidates are drawn by the classic
// endpoint-of-a-random-arc trick, which is exactly degree-proportional;
// picking among them by locality weight preserves the power law while
// favoring short links.
constexpr std::size_t kLocalityCandidates = 24;

}  // namespace

NodeId append_router_topology(Network& net, std::int32_t count, AsId as_id,
                              double cx, double cy, double radius,
                              std::int32_t links_per_node,
                              double locality_miles, double bandwidth_bps,
                              Rng& rng) {
  MASSF_CHECK(count >= 1);
  MASSF_CHECK(links_per_node >= 1);
  const auto first = static_cast<NodeId>(net.nodes.size());
  MASSF_CHECK(first == net.num_routers);  // routers must precede hosts

  // Place all routers first.
  for (std::int32_t i = 0; i < count; ++i) {
    NetNode node;
    node.kind = NodeKind::kRouter;
    node.as_id = as_id;
    node.x = cx + rng.uniform_real(-radius, radius);
    node.y = cy + rng.uniform_real(-radius, radius);
    net.nodes.push_back(node);
  }
  net.num_routers += count;

  const auto add_link = [&](NodeId a, NodeId b) {
    NetLink l;
    l.a = a;
    l.b = b;
    l.latency = latency_for_distance(
        distance_miles(net.nodes[static_cast<std::size_t>(a)].x,
                       net.nodes[static_cast<std::size_t>(a)].y,
                       net.nodes[static_cast<std::size_t>(b)].x,
                       net.nodes[static_cast<std::size_t>(b)].y));
    l.bandwidth_bps = bandwidth_bps;
    net.links.push_back(l);
  };

  // `arcs` holds every link endpoint (local index); sampling a uniform
  // element is degree-proportional sampling.
  std::vector<std::int32_t> arcs;
  arcs.reserve(static_cast<std::size_t>(count) *
               static_cast<std::size_t>(links_per_node) * 2);

  // Seed clique of min(m+1, count) routers so every attachment has targets.
  const std::int32_t seed_n =
      std::min<std::int32_t>(links_per_node + 1, count);
  for (std::int32_t i = 0; i < seed_n; ++i) {
    for (std::int32_t j = i + 1; j < seed_n; ++j) {
      add_link(first + i, first + j);
      arcs.push_back(i);
      arcs.push_back(j);
    }
  }

  std::vector<std::int32_t> chosen;
  for (std::int32_t i = seed_n; i < count; ++i) {
    const double xi = net.nodes[static_cast<std::size_t>(first + i)].x;
    const double yi = net.nodes[static_cast<std::size_t>(first + i)].y;
    chosen.clear();
    const std::int32_t want = std::min<std::int32_t>(links_per_node, i);
    for (std::int32_t e = 0; e < want; ++e) {
      std::int32_t target = -1;
      if (locality_miles > 0) {
        double best_w = -1;
        for (std::size_t c = 0; c < kLocalityCandidates; ++c) {
          const std::int32_t cand = arcs[rng.uniform(arcs.size())];
          if (cand == i ||
              std::find(chosen.begin(), chosen.end(), cand) != chosen.end()) {
            continue;
          }
          const auto& n = net.nodes[static_cast<std::size_t>(first + cand)];
          const double d = distance_miles(xi, yi, n.x, n.y);
          // Jittered locality weight: deterministic given the RNG stream.
          const double w =
              std::exp(-d / locality_miles) * (0.5 + rng.uniform01());
          if (w > best_w) {
            best_w = w;
            target = cand;
          }
        }
      }
      if (target < 0) {
        // Pure degree-proportional fallback (also used when all candidates
        // collided with already-chosen targets).
        for (int attempt = 0; attempt < 64 && target < 0; ++attempt) {
          const std::int32_t cand = arcs[rng.uniform(arcs.size())];
          if (cand != i &&
              std::find(chosen.begin(), chosen.end(), cand) == chosen.end()) {
            target = cand;
          }
        }
        if (target < 0) {
          // Degenerate small graphs: pick the first admissible node.
          for (std::int32_t cand = 0; cand < i; ++cand) {
            if (std::find(chosen.begin(), chosen.end(), cand) ==
                chosen.end()) {
              target = cand;
              break;
            }
          }
        }
      }
      MASSF_CHECK(target >= 0);
      chosen.push_back(target);
      add_link(first + i, first + target);
      arcs.push_back(i);
      arcs.push_back(target);
    }
  }
  return first;
}

NodeId attach_hosts(Network& net, std::int32_t count, NodeId router_begin,
                    NodeId router_end, double bandwidth_bps, Rng& rng) {
  MASSF_CHECK(router_begin >= 0 && router_end <= net.num_routers &&
              router_begin < router_end);
  const auto first = static_cast<NodeId>(net.nodes.size());
  for (std::int32_t i = 0; i < count; ++i) {
    const auto r = static_cast<NodeId>(
        router_begin +
        static_cast<NodeId>(rng.uniform(
            static_cast<std::uint64_t>(router_end - router_begin))));
    // Copy, not reference: the push_back below may reallocate net.nodes.
    const NetNode rn = net.nodes[static_cast<std::size_t>(r)];
    NetNode h;
    h.kind = NodeKind::kHost;
    h.as_id = rn.as_id;
    h.x = rn.x + rng.uniform_real(-5, 5);
    h.y = rn.y + rng.uniform_real(-5, 5);
    h.attach_router = r;
    const auto hid = static_cast<NodeId>(net.nodes.size());
    net.nodes.push_back(h);

    NetLink l;
    l.a = r;
    l.b = hid;
    l.latency = latency_for_distance(
        distance_miles(rn.x, rn.y, h.x, h.y));  // floors at 10 us
    l.bandwidth_bps = bandwidth_bps;
    net.links.push_back(l);
  }
  return first;
}

Network generate_flat(const BriteOptions& opts) {
  Rng rng(opts.seed);
  Network net;
  Rng router_rng = rng.fork("routers");
  append_router_topology(net, opts.num_routers, /*as_id=*/0,
                         opts.plane_miles / 2, opts.plane_miles / 2,
                         opts.plane_miles / 2, opts.links_per_node,
                         opts.locality_miles, opts.router_bandwidth_bps,
                         router_rng);
  Rng host_rng = rng.fork("hosts");
  attach_hosts(net, opts.num_hosts, 0, net.num_routers,
               opts.access_bandwidth_bps, host_rng);
  net.build_adjacency();
  return net;
}

}  // namespace massf
