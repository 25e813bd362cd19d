// The unified router-level forwarding plane the packet simulation queries.
//
// Flat (single-AS) networks: one OSPF domain over all routers.
// Multi-AS networks: per-AS OSPF domains for intra-AS hops, a BGP policy
// solver for the AS-level next hop, deterministic egress (border link)
// selection per (AS, next-AS) pair, and — per the paper's Section 5.1.2
// step 6 — default routing in Stub ASes: stub routers forward any non-local
// destination toward the border link of their primary provider instead of
// carrying full BGP tables.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "routing/bgp.hpp"
#include "routing/ospf.hpp"
#include "topology/network.hpp"

namespace massf {

class ForwardingPlane {
 public:
  struct Options {
    /// Stub ASes use a default route toward their primary provider instead
    /// of per-destination BGP lookups (paper Section 5.1.2 step 6c/6d).
    bool stub_default_routing = true;
  };

  /// Flat network: OSPF shortest path everywhere. `dest_routers` are the
  /// routers that will terminate traffic (attachment points of active
  /// hosts); only those get routing tables.
  static ForwardingPlane build_flat(const Network& net,
                                    std::span<const NodeId> dest_routers);

  /// Multi-AS network with BGP inter-domain routing.
  static ForwardingPlane build_multi_as(const Network& net,
                                        std::span<const NodeId> dest_routers,
                                        const Options& opts);
  static ForwardingPlane build_multi_as(const Network& net,
                                        std::span<const NodeId> dest_routers) {
    return build_multi_as(net, dest_routers, Options{});
  }

  /// The link a packet at router `from` takes toward `dest` (host or
  /// router). Returns the host access link when dest is a host attached to
  /// `from`; kInvalidLink when the packet has arrived (from == dest) or no
  /// policy-compliant route exists (caller drops the packet).
  LinkId next_link(NodeId from, NodeId dest) const;

  /// Whether policy routing admits a path (connectivity != reachability in
  /// multi-AS networks).
  bool reachable(NodeId from, NodeId dest) const;

  /// Router terminating traffic for `dest` (the host's attachment router,
  /// or the router itself).
  NodeId dest_router(NodeId dest) const;

  const BgpSolver* bgp() const { return bgp_ ? &*bgp_ : nullptr; }

  bool is_multi_as() const { return bgp_.has_value(); }

  /// Control-plane view of a link failure/restoration. Takes effect at the
  /// next reconverge(). Intra-domain links are withdrawn from their OSPF
  /// domain; border links trigger egress re-selection among the remaining
  /// up links of the AS pair. Host access links are ignored (no routing
  /// choice exists). NOT thread-safe against concurrent next_link lookups
  /// — mutate only at a window barrier.
  void set_link_state(LinkId link, bool up);

  /// Brings every routing table up to date with the link states changed
  /// since the last call (the SPF run after the flooding delay): OSPF
  /// repairs only the trees the changes can move. Mutate-at-barrier only.
  void reconverge();

  /// The links currently marked down (set_link_state), for a caller that
  /// puts the plane back with restore_down_links() later.
  const std::unordered_set<LinkId>& down_links() const { return down_links_; }

  /// Brings the plane back to a saved down-set: replays the difference
  /// through set_link_state, then reconverges once. The tables and egress
  /// choices are pure functions of (topology, down-set), so this reproduces
  /// the plane that held `down` exactly. A no-op when nothing changed.
  /// Mutate-at-barrier only.
  void restore_down_links(const std::unordered_set<LinkId>& down);

 private:
  explicit ForwardingPlane(const Network& net);

  const Network* net_;
  std::vector<LinkId> host_link_;  // per host index (id - num_routers)

  // Flat mode.
  std::optional<OspfDomain> flat_;

  // One neighbour AS of an AS: the lowest up border link toward it
  // (kInvalidLink while every one is down), and whether it is a provider.
  struct Egress {
    AsId nbr;
    LinkId link;
    bool provider;
  };

  void select_egress();
  // Index in egress_ of the entry of `as` for `nbr`; -1 if not adjacent.
  std::int32_t egress_index(AsId as, AsId nbr) const;

  // Multi-AS mode.
  std::vector<OspfDomain> domains_;  // one per AS
  std::optional<BgpSolver> bgp_;
  // Per AS, its neighbours in ascending id order (CSR over egress_, built
  // once from the AS adjacency; select_egress refills the links).
  std::vector<std::int32_t> egress_begin_;
  std::vector<Egress> egress_;
  std::vector<LinkId> default_egress_;  // per AS, stubs only
  Options opts_;
  std::unordered_set<LinkId> down_links_;
};

}  // namespace massf
