// BRITE-style router-level topology generation: degree-based preferential
// attachment (Barabási–Albert) following the power law, with an optional
// locality bias so geographically close routers are more likely to be
// linked (BRITE places nodes on a plane and derives link latency from
// distance; without locality a power-law graph has almost no short links
// and the MLL structure the paper studies would not exist).
#pragma once

#include <cstdint>

#include "topology/network.hpp"
#include "util/rng.hpp"

namespace massf {

struct BriteOptions {
  std::int32_t num_routers = 2000;
  std::int32_t num_hosts = 1000;
  /// Side of the square plane in miles (paper: 5000 x 5000, roughly the
  /// North American continent).
  double plane_miles = 5000;
  /// Edges added per new node (BA "m").
  std::int32_t links_per_node = 2;
  /// Locality scale in miles: candidate targets are weighted by
  /// exp(-distance / locality_miles) on top of degree. <= 0 disables.
  double locality_miles = 250;
  double router_bandwidth_bps = 2.5e9;  ///< backbone links (OC-48 class)
  double access_bandwidth_bps = 1e8;    ///< host access links
  std::uint64_t seed = 1;
};

/// Generates a flat (single-AS) network: routers + hosts, adjacency built.
Network generate_flat(const BriteOptions& opts);

/// Appends `count` routers belonging to `as_id`, placed uniformly within
/// `radius` miles of (cx, cy) and wired by locality-aware preferential
/// attachment among themselves. Used both by generate_flat (whole plane)
/// and by the multi-AS generator (per-AS pocket). Links are appended to
/// net.links; adjacency is NOT rebuilt. Returns the id of the first new
/// router.
NodeId append_router_topology(Network& net, std::int32_t count, AsId as_id,
                              double cx, double cy, double radius,
                              std::int32_t links_per_node,
                              double locality_miles, double bandwidth_bps,
                              Rng& rng);

/// Appends `count` hosts, each attached by a short access link to a router
/// drawn uniformly from [router_begin, router_end). Returns the id of the
/// first new host.
NodeId attach_hosts(Network& net, std::int32_t count, NodeId router_begin,
                    NodeId router_end, double bandwidth_bps, Rng& rng);

}  // namespace massf
