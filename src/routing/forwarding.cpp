#include "routing/forwarding.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace massf {

ForwardingPlane::ForwardingPlane(const Network& net) : net_(&net) {
  // Every host has exactly one (access) link.
  host_link_.assign(static_cast<std::size_t>(net.num_hosts()), kInvalidLink);
  for (NodeId h = net.num_routers;
       h < static_cast<NodeId>(net.nodes.size()); ++h) {
    const auto inc = net.incident(h);
    MASSF_CHECK(inc.size() == 1);
    host_link_[static_cast<std::size_t>(h - net.num_routers)] = inc[0].link;
  }
}

NodeId ForwardingPlane::dest_router(NodeId dest) const {
  if (net_->is_host(dest)) {
    return net_->nodes[static_cast<std::size_t>(dest)].attach_router;
  }
  return dest;
}

ForwardingPlane ForwardingPlane::build_flat(
    const Network& net, std::span<const NodeId> dest_routers) {
  ForwardingPlane fp(net);
  std::vector<NodeId> all(static_cast<std::size_t>(net.num_routers));
  for (NodeId r = 0; r < net.num_routers; ++r) {
    all[static_cast<std::size_t>(r)] = r;
  }
  fp.flat_.emplace(net, all, /*use_inter_as_links=*/true);
  fp.flat_->add_destinations(dest_routers);
  return fp;
}

ForwardingPlane ForwardingPlane::build_multi_as(
    const Network& net, std::span<const NodeId> dest_routers,
    const Options& opts) {
  MASSF_CHECK(!net.as_info.empty());
  ForwardingPlane fp(net);
  fp.opts_ = opts;

  const auto num_as = static_cast<std::size_t>(net.num_as());
  fp.domains_.reserve(num_as);
  for (const AsInfo& info : net.as_info) {
    std::vector<NodeId> members(static_cast<std::size_t>(info.num_routers));
    for (std::int32_t i = 0; i < info.num_routers; ++i) {
      members[static_cast<std::size_t>(i)] = info.first_router + i;
    }
    fp.domains_.emplace_back(net, members, /*use_inter_as_links=*/false);
  }
  // Size each domain's tables once for every router that can become one
  // of its destinations: traffic destinations and border routers (egress
  // targets, now or after a failover).
  std::vector<char> is_dest(static_cast<std::size_t>(net.num_routers), 0);
  for (const AsAdjacency& adj : net.as_adjacency) {
    const NetLink& l = net.links[static_cast<std::size_t>(adj.link)];
    is_dest[static_cast<std::size_t>(l.a)] = 1;
    is_dest[static_cast<std::size_t>(l.b)] = 1;
  }
  for (const NodeId d : dest_routers) is_dest[static_cast<std::size_t>(d)] = 1;
  std::vector<std::size_t> per_as(num_as, 0);
  for (NodeId r = 0; r < net.num_routers; ++r) {
    if (is_dest[static_cast<std::size_t>(r)] != 0) {
      ++per_as[static_cast<std::size_t>(
          net.nodes[static_cast<std::size_t>(r)].as_id)];
    }
  }
  for (std::size_t a = 0; a < num_as; ++a) {
    fp.domains_[a].reserve_destinations(per_as[a]);
  }

  fp.bgp_.emplace(net.num_as(), net.as_adjacency);
  fp.bgp_->solve();

  // Each AS's neighbours, sorted by id, once: the adjacency never changes,
  // only which border links are up.
  std::vector<std::vector<Egress>> nbrs(num_as);
  const auto add_nbr = [&nbrs](AsId as, AsId nbr, bool provider) {
    nbrs[static_cast<std::size_t>(as)].push_back(
        {nbr, kInvalidLink, provider});
  };
  for (const AsAdjacency& adj : net.as_adjacency) {
    add_nbr(adj.as_a, adj.as_b, adj.rel_ab == AsRel::kProvider);
    add_nbr(adj.as_b, adj.as_a, adj.rel_ab == AsRel::kCustomer);
  }
  fp.egress_begin_.assign(num_as + 1, 0);
  for (std::size_t a = 0; a < num_as; ++a) {
    std::vector<Egress>& v = nbrs[a];
    std::sort(v.begin(), v.end(), [](const Egress& x, const Egress& y) {
      return x.nbr < y.nbr || (x.nbr == y.nbr && x.provider > y.provider);
    });
    // One entry per neighbour; it is a provider if any adjacency says so
    // (sorted first among its duplicates).
    v.erase(std::unique(v.begin(), v.end(),
                        [](const Egress& x, const Egress& y) {
                          return x.nbr == y.nbr;
                        }),
            v.end());
    fp.egress_.insert(fp.egress_.end(), v.begin(), v.end());
    fp.egress_begin_[a + 1] = static_cast<std::int32_t>(fp.egress_.size());
  }
  fp.select_egress();

  std::vector<std::vector<NodeId>> by_as(num_as);
  for (const NodeId d : dest_routers) {
    MASSF_CHECK(net.is_router(d));
    by_as[static_cast<std::size_t>(
              net.nodes[static_cast<std::size_t>(d)].as_id)]
        .push_back(d);
  }
  for (std::size_t a = 0; a < num_as; ++a) {
    fp.domains_[a].add_destinations(by_as[a]);
  }
  return fp;
}

std::int32_t ForwardingPlane::egress_index(AsId as, AsId nbr) const {
  const auto a = static_cast<std::size_t>(as);
  const auto begin = egress_.begin() + egress_begin_[a];
  const auto end = egress_.begin() + egress_begin_[a + 1];
  const auto it = std::lower_bound(
      begin, end, nbr, [](const Egress& e, AsId id) { return e.nbr < id; });
  return it == end || it->nbr != nbr
             ? -1
             : static_cast<std::int32_t>(it - egress_.begin());
}

void ForwardingPlane::select_egress() {
  const Network& net = *net_;
  const auto num_as = static_cast<std::size_t>(net.num_as());

  // Deterministic egress selection: for each (AS, neighbor AS) pair keep
  // the lowest *up* border link id; register its local endpoint as an OSPF
  // destination inside the AS. Pairs whose every border link is down keep
  // kInvalidLink (next_link then drops the packet).
  for (Egress& e : egress_) e.link = kInvalidLink;
  const auto offer = [this](AsId as, AsId nbr, LinkId link) {
    LinkId& best =
        egress_[static_cast<std::size_t>(egress_index(as, nbr))].link;
    if (best == kInvalidLink || link < best) best = link;
  };
  for (const AsAdjacency& adj : net.as_adjacency) {
    if (down_links_.count(adj.link) > 0) continue;
    offer(adj.as_a, adj.as_b, adj.link);
    offer(adj.as_b, adj.as_a, adj.link);
  }

  // Default routes for stub ASes: primary provider = adjacent provider
  // with the lowest AS id whose border link is up (deterministic "pick
  // default/backup routers" of step 6d — backups engage on failure).
  default_egress_.assign(num_as, kInvalidLink);
  std::vector<NodeId> locals;
  for (std::size_t a = 0; a < num_as; ++a) {
    const bool stub = opts_.stub_default_routing &&
                      net.as_info[a].cls == AsClass::kStub;
    locals.clear();
    for (std::int32_t i = egress_begin_[a]; i < egress_begin_[a + 1]; ++i) {
      const Egress& e = egress_[static_cast<std::size_t>(i)];
      if (e.link == kInvalidLink) continue;
      const NetLink& l = net.links[static_cast<std::size_t>(e.link)];
      locals.push_back(net.nodes[static_cast<std::size_t>(l.a)].as_id ==
                               static_cast<AsId>(a)
                           ? l.a
                           : l.b);
      if (stub && e.provider && default_egress_[a] == kInvalidLink) {
        default_egress_[a] = e.link;
      }
    }
    domains_[a].add_destinations(locals);
  }
}

void ForwardingPlane::set_link_state(LinkId link, bool up) {
  MASSF_CHECK(link >= 0 &&
              link < static_cast<LinkId>(net_->links.size()));
  if (up) {
    down_links_.erase(link);
  } else {
    down_links_.insert(link);
  }
  const NetLink& l = net_->links[static_cast<std::size_t>(link)];
  if (!net_->is_router(l.a) || !net_->is_router(l.b)) return;  // access link
  if (flat_) {
    flat_->set_link_excluded(link, !up);
    return;
  }
  const AsId aa = net_->nodes[static_cast<std::size_t>(l.a)].as_id;
  const AsId ab = net_->nodes[static_cast<std::size_t>(l.b)].as_id;
  if (aa == ab) {
    domains_[static_cast<std::size_t>(aa)].set_link_excluded(link, !up);
  }
  // Border links are handled by select_egress() during reconverge().
}

void ForwardingPlane::reconverge() {
  if (flat_) {
    flat_->recompute();
    return;
  }
  select_egress();
  for (OspfDomain& d : domains_) d.recompute();
}

LinkId ForwardingPlane::next_link(NodeId from, NodeId dest) const {
  MASSF_CHECK(net_->is_router(from));
  const NodeId droute = dest_router(dest);

  // Arrived at the destination's attachment router: hand to the host (or
  // terminate for router destinations).
  if (from == droute) {
    if (net_->is_host(dest)) {
      return host_link_[static_cast<std::size_t>(dest - net_->num_routers)];
    }
    return kInvalidLink;
  }

  if (flat_) return flat_->next_link(from, droute);

  const AsId my_as = net_->nodes[static_cast<std::size_t>(from)].as_id;
  const AsId dest_as = net_->nodes[static_cast<std::size_t>(droute)].as_id;

  if (my_as == dest_as) {
    return domains_[static_cast<std::size_t>(my_as)].next_link(from, droute);
  }

  // Inter-AS: pick the egress border link, default-routed for stubs.
  LinkId egress = kInvalidLink;
  if (opts_.stub_default_routing &&
      net_->as_info[static_cast<std::size_t>(my_as)].cls == AsClass::kStub &&
      default_egress_[static_cast<std::size_t>(my_as)] != kInvalidLink) {
    egress = default_egress_[static_cast<std::size_t>(my_as)];
  } else {
    const BgpRoute& r = bgp_->route(my_as, dest_as);
    if (r.next_hop_as < 0) return kInvalidLink;  // policy-unreachable
    const std::int32_t e = egress_index(my_as, r.next_hop_as);
    if (e < 0) return kInvalidLink;
    // Every border link toward the BGP next hop may be down (the control
    // plane has not re-learned a path yet): blackhole, as in real life.
    egress = egress_[static_cast<std::size_t>(e)].link;
    if (egress == kInvalidLink) return kInvalidLink;
  }

  const NetLink& l = net_->links[static_cast<std::size_t>(egress)];
  const NodeId local_end =
      net_->nodes[static_cast<std::size_t>(l.a)].as_id == my_as ? l.a : l.b;
  if (from == local_end) return egress;  // cross the border
  return domains_[static_cast<std::size_t>(my_as)].next_link(from, local_end);
}

bool ForwardingPlane::reachable(NodeId from, NodeId dest) const {
  if (flat_) return true;  // connected flat network: OSPF reaches everything
  NodeId from_router = net_->is_host(from)
                           ? net_->nodes[static_cast<std::size_t>(from)]
                                 .attach_router
                           : from;
  const AsId a = net_->nodes[static_cast<std::size_t>(from_router)].as_id;
  const AsId b =
      net_->nodes[static_cast<std::size_t>(dest_router(dest))].as_id;
  if (a == b) return true;
  if (bgp_->reachable(a, b)) return true;
  // A default-routed stub can still emit traffic upward; it is deliverable
  // iff its primary provider has a route.
  if (opts_.stub_default_routing &&
      net_->as_info[static_cast<std::size_t>(a)].cls == AsClass::kStub &&
      default_egress_[static_cast<std::size_t>(a)] != kInvalidLink) {
    const NetLink& l = net_->links[static_cast<std::size_t>(
        default_egress_[static_cast<std::size_t>(a)])];
    const AsId provider =
        net_->nodes[static_cast<std::size_t>(l.a)].as_id == a
            ? net_->nodes[static_cast<std::size_t>(l.b)].as_id
            : net_->nodes[static_cast<std::size_t>(l.a)].as_id;
    return bgp_->reachable(provider, b);
  }
  return false;
}

void ForwardingPlane::restore_down_links(
    const std::unordered_set<LinkId>& down) {
  if (down == down_links_) return;  // tables already match
  const std::vector<LinkId> current(down_links_.begin(), down_links_.end());
  for (const LinkId l : current)
    if (down.find(l) == down.end()) set_link_state(l, true);
  for (const LinkId l : down)
    if (down_links_.find(l) == down_links_.end()) set_link_state(l, false);
  reconverge();
}

}  // namespace massf
