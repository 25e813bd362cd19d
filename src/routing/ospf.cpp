#include "routing/ospf.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/parallel.hpp"

namespace massf {

namespace {

// Workspace distance of a router no usable path connects to the
// destination.
constexpr std::int64_t kUnreached = std::numeric_limits<std::int64_t>::max();

// flag_ws_ bits.
constexpr std::uint8_t kHasNew = 1;  // new_ws_ holds the repaired distance
constexpr std::uint8_t kListed = 2;  // in list_ws_

// SPF queue keys: distance (>= 0) in the high word, router in the low, so
// the heap pops in (distance, router) order.
QuadHeap::Key spf_key(std::int64_t dist, std::int32_t x) {
  return QuadHeap::Key{static_cast<std::uint64_t>(dist)} << 64 |
         static_cast<std::uint32_t>(x);
}

std::pair<std::int64_t, std::int32_t> spf_entry(QuadHeap::Key k) {
  return {static_cast<std::int64_t>(k >> 64),
          static_cast<std::int32_t>(static_cast<std::uint32_t>(k))};
}

}  // namespace

OspfDomain::OspfDomain(const Network& net, std::span<const NodeId> members,
                       bool use_inter_as_links)
    : n_(members.size()) {
  if (!members.empty()) {
    base_ = *std::min_element(members.begin(), members.end());
  }
  std::vector<char> seen(n_, 0);  // members must cover the range once
  for (const NodeId m : members) {
    MASSF_CHECK(net.is_router(m));
    const std::int32_t i = local_index(m);
    MASSF_CHECK(i >= 0 && seen[static_cast<std::size_t>(i)] == 0);
    seen[static_cast<std::size_t>(i)] = 1;
  }
  slot_.assign(n_, -1);

  // Each domain link once, seen from its lower local endpoint. Positive
  // latencies are what make the repairs in recompute() exact.
  for (std::size_t i = 0; i < n_; ++i) {
    const auto u = static_cast<std::int32_t>(i);
    for (const auto& inc : net.incident(base_ + u)) {
      const NetLink& l = net.links[static_cast<std::size_t>(inc.link)];
      if (l.inter_as && !use_inter_as_links) continue;
      const std::int32_t v = local_index(inc.peer);
      if (v <= u) continue;
      MASSF_CHECK(l.latency > 0);
      links_.push_back({inc.link, u, v, 0, 0, l.latency});
    }
  }
  std::sort(links_.begin(), links_.end(),
            [](const DomainLink& a, const DomainLink& b) { return a.id < b.id; });

  // Adjacency in CSR form, filled in link-id order so every router's arcs
  // are sorted by link id: a next hop is an index into it, and comparing
  // two indices of one router compares their link ids.
  arc_begin_.assign(n_ + 1, 0);
  for (const DomainLink& l : links_) {
    ++arc_begin_[static_cast<std::size_t>(l.u) + 1];
    ++arc_begin_[static_cast<std::size_t>(l.v) + 1];
  }
  for (std::size_t i = 0; i < n_; ++i) arc_begin_[i + 1] += arc_begin_[i];
  arcs_.resize(2 * links_.size());
  arc_link_.resize(arcs_.size());
  std::vector<std::int32_t> fill(arc_begin_.begin(), arc_begin_.end() - 1);
  for (std::size_t k = 0; k < links_.size(); ++k) {
    DomainLink& l = links_[k];
    const auto pu =
        static_cast<std::size_t>(fill[static_cast<std::size_t>(l.u)]++);
    const auto pv =
        static_cast<std::size_t>(fill[static_cast<std::size_t>(l.v)]++);
    l.at_u = static_cast<Hop>(pu - arc_index(l.u, 0));
    l.at_v = static_cast<Hop>(pv - arc_index(l.v, 0));
    const auto dl = static_cast<std::int32_t>(k);
    arcs_[pu] = {l.cost, dl, l.v, l.at_v};
    arcs_[pv] = {l.cost, dl, l.u, l.at_u};
    arc_link_[pu] = arc_link_[pv] = l.id;
  }

  // The slot layout: fields in router order, each bit_width(degree) wide
  // (room for every adjacency index plus the all-ones "none"); a field
  // that would straddle a word starts the next one. Width-0 fields take no
  // bits. A slot is whole words, so trees of distinct slots share none.
  field_.resize(n_);
  std::uint32_t word = 0, bit = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const auto degree =
        static_cast<std::uint32_t>(arc_begin_[i + 1] - arc_begin_[i]);
    const auto width = static_cast<std::uint32_t>(std::bit_width(degree));
    HopField& f = field_[i];
    f = {0, 0, 0, arc_begin_[i]};
    if (width == 0) continue;
    if (bit + width > 64) {
      ++word;
      bit = 0;
    }
    f.word = word;
    f.shift = bit;
    f.mask = static_cast<Hop>((std::uint64_t{1} << width) - 1);
    bit += width;
  }
  stride_ = std::size_t{word} + 1;

  excluded_.assign(links_.size(), 0);
  applied_.assign(links_.size(), 0);
  ws_ = make_workspace();
  new_ws_.assign(n_, kUnreached);
  stamp_ws_.assign(n_, 0);
  flag_ws_.assign(n_, 0);
}

// The heap never holds more than one entry per relaxation plus the root,
// so a tree build on this workspace allocates nothing.
OspfDomain::SptWorkspace OspfDomain::make_workspace() const {
  SptWorkspace ws;
  ws.dist.assign(n_, kUnreached);
  ws.hop.assign(n_, kNone);
  ws.heap.reserve(arcs_.size() + 1);
  return ws;
}

void OspfDomain::reserve_destinations(std::size_t count) {
  dests_.reserve(count);
  words_.reserve(count * stride_);
}

void OspfDomain::add_destinations(std::span<const NodeId> dests) {
  if (std::all_of(dests.begin(), dests.end(),
                  [this](NodeId d) { return has_destination(d); })) {
    return;
  }
  if (!changed_.empty()) recompute();

  const std::size_t first = dests_.size();
  for (const NodeId dest : dests) {
    if (has_destination(dest)) continue;  // registered, or repeated
    const std::int32_t d = local_index(dest);
    MASSF_CHECK(d >= 0);
    slot_[static_cast<std::size_t>(d)] =
        static_cast<std::int32_t>(dests_.size());
    dests_.push_back(d);
  }
  const std::size_t added = dests_.size() - first;
  // Past the reserved capacity, grow by exactly the new tables: doubling
  // would hold the old and the new copy at once and raise the peak
  // footprint.
  const std::size_t size = dests_.size() * stride_;
  if (words_.capacity() < size) words_.reserve(size);
  words_.resize(size);

  // Worker 0 is this thread and builds on ws_; the other workspaces are
  // allocated here, so the workers allocate nothing.
  std::vector<SptWorkspace> extra(parallel_width(added) - 1);
  for (SptWorkspace& ws : extra) ws = make_workspace();
  parallel_for(added, [&](std::size_t worker, std::size_t i) {
    build_tree(first + i, worker == 0 ? ws_ : extra[worker - 1]);
  });
}

void OspfDomain::set_link_excluded(LinkId link, bool excluded) {
  const auto it = std::lower_bound(
      links_.begin(), links_.end(), link,
      [](const DomainLink& l, LinkId id) { return l.id < id; });
  if (it == links_.end() || it->id != link) return;  // not a domain link
  const auto dl = static_cast<std::size_t>(it - links_.begin());
  if ((excluded_[dl] != 0) == excluded) return;
  excluded_[dl] = excluded ? 1 : 0;
  changed_.push_back(static_cast<std::int32_t>(dl));
}

// The tables hold, for every router x of a tree rooted at destination t,
// the lowest-id non-excluded link on a shortest path from x to t. A batch
// of exclusion changes moves that function only in trees where
//   * a withdrawn link is some router's next hop (otherwise every tree
//     path survives, no distance grows, and each old next hop is still
//     the lowest tight link), or
//   * a restored link (u, v, c) satisfies d(u) + c <= d(v) in either
//     direction under the old distances (otherwise those distances still
//     solve the shortest-path equations and the link is tight nowhere).
// A tree hit by one kind only is repaired in place; one hit by both is
// rebuilt.
void OspfDomain::recompute() {
  withdrawn_.clear();
  restored_.clear();
  for (const std::int32_t dl : changed_) {
    const auto i = static_cast<std::size_t>(dl);
    if (excluded_[i] == applied_[i]) continue;  // flipped back, or seen
    applied_[i] = excluded_[i];
    (excluded_[i] != 0 ? withdrawn_ : restored_).push_back(dl);
  }
  changed_.clear();
  if (withdrawn_.empty() && restored_.empty()) return;

  for (std::size_t slot = 0; slot < dests_.size(); ++slot) {
    begin_tree();
    const bool cut = !withdrawn_.empty() && uses_withdrawn(slot);
    const bool shortcut = !restored_.empty() && gains_restored(slot);
    if (cut && shortcut) {
      build_tree(slot, ws_);
    } else if (cut) {
      repair_withdrawn(slot);
    } else if (shortcut) {
      repair_restored(slot);
    }
  }
}

NodeId OspfDomain::next_hop(const Network& net, NodeId from,
                            NodeId dest) const {
  const LinkId l = next_link(from, dest);
  if (l == kInvalidLink) return kInvalidNode;
  const NetLink& link = net.links[static_cast<std::size_t>(l)];
  return link.a == from ? link.b : link.a;
}

// ---- tree maintenance --------------------------------------------------------

// Dijkstra outward from the destination; because links are symmetric the
// tree rooted at dest gives, for every router, the first link of its
// shortest path *toward* dest. Ties are broken toward the lower adjacency
// index, i.e. the lower link id, which makes each next hop the lowest
// tight link (the repairs pick it with lowest_tight_hop instead). The
// tree is built on the workspace's per-router hops, then packed into the
// slot's words.
void OspfDomain::build_tree(std::size_t slot, SptWorkspace& ws) {
  std::vector<Hop>& next = ws.hop;
  std::fill(next.begin(), next.end(), kNone);
  std::vector<std::int64_t>& dist = ws.dist;
  std::fill(dist.begin(), dist.end(), kUnreached);
  const std::int32_t t = dests_[slot];
  dist[static_cast<std::size_t>(t)] = 0;
  ws.heap.clear();
  ws.heap.push(spf_key(0, t));
  while (!ws.heap.empty()) {
    const auto [d, x] = spf_entry(ws.heap.pop());
    if (d != dist[static_cast<std::size_t>(x)]) continue;
    for (const Arc& a : arcs(x)) {
      if (excluded_[static_cast<std::size_t>(a.dlink)] != 0) continue;
      const std::int64_t nd = d + a.cost;
      const auto pi = static_cast<std::size_t>(a.peer);
      if (nd > dist[pi]) continue;
      if (nd < dist[pi]) {
        dist[pi] = nd;
        next[pi] = a.rev;
        ws.heap.push(spf_key(nd, a.peer));
      } else if (a.rev < next[pi]) {
        next[pi] = a.rev;
      }
    }
  }
  std::uint64_t* out = words_.data() + slot * stride_;
  std::fill(out, out + stride_, 0);
  for (std::size_t x = 0; x < n_; ++x) {
    const HopField& f = field_[x];
    out[f.word] |= std::uint64_t{next[x] & f.mask} << f.shift;
  }
}

// The repairs below work in the neighbourhood of the change, without a
// pass over the whole tree. Distances under the tree as it stood are read
// by walking next-hop pointers toward the destination (old_distance, which
// memoizes every router it walks through for the tree at hand); a repaired
// distance lives in new_ws_ for the routers flagged kHasNew; the routers
// whose next hop is re-picked are listed in list_ws_.

void OspfDomain::begin_tree() {
  if (++epoch_ == 0) {  // wrapped: no stale stamp may match
    std::fill(stamp_ws_.begin(), stamp_ws_.end(), 0);
    epoch_ = 1;
  }
}

std::int64_t OspfDomain::old_distance(std::size_t slot, std::int32_t x) {
  std::vector<std::int64_t>& dist = ws_.dist;
  std::int32_t y = x;
  while (stamp_ws_[static_cast<std::size_t>(y)] != epoch_) {
    const Hop h = hop(slot, y);
    if (h == kNone) {  // the destination, or cut off
      dist[static_cast<std::size_t>(y)] = y == dests_[slot] ? 0 : kUnreached;
      stamp_ws_[static_cast<std::size_t>(y)] = epoch_;
      break;
    }
    const std::size_t arc = arc_index(y, h);
    stack_ws_.emplace_back(y, static_cast<std::int32_t>(arc));
    y = arcs_[arc].peer;
  }
  while (!stack_ws_.empty()) {
    const auto [z, arc] = stack_ws_.back();
    stack_ws_.pop_back();
    const Arc& a = arcs_[static_cast<std::size_t>(arc)];
    dist[static_cast<std::size_t>(z)] =
        dist[static_cast<std::size_t>(a.peer)] + a.cost;
    stamp_ws_[static_cast<std::size_t>(z)] = epoch_;
  }
  return dist[static_cast<std::size_t>(x)];
}

std::int64_t OspfDomain::cur_distance(std::size_t slot, std::int32_t x) {
  const auto i = static_cast<std::size_t>(x);
  return (flag_ws_[i] & kHasNew) != 0 ? new_ws_[i] : old_distance(slot, x);
}

OspfDomain::Hop OspfDomain::lowest_tight_hop(std::size_t slot,
                                             std::int32_t x) {
  const std::int64_t d = cur_distance(slot, x);
  if (d == kUnreached) return kNone;
  const std::span<const Arc> out = arcs(x);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Arc& a = out[i];
    if (excluded_[static_cast<std::size_t>(a.dlink)] != 0) continue;
    const std::int64_t pd = cur_distance(slot, a.peer);
    if (pd != kUnreached && pd + a.cost == d) return static_cast<Hop>(i);
  }
  return kNone;  // x is the destination
}

void OspfDomain::list(std::int32_t x, std::uint8_t flags) {
  std::uint8_t& f = flag_ws_[static_cast<std::size_t>(x)];
  if ((f & kListed) == 0) list_ws_.push_back(x);
  f |= kListed | flags;
}

bool OspfDomain::uses_withdrawn(std::size_t slot) const {
  for (const std::int32_t dl : withdrawn_) {
    const DomainLink& l = links_[static_cast<std::size_t>(dl)];
    if (hop(slot, l.u) == l.at_u || hop(slot, l.v) == l.at_v) return true;
  }
  return false;
}

bool OspfDomain::gains_restored(std::size_t slot) {
  for (const std::int32_t dl : restored_) {
    const DomainLink& l = links_[static_cast<std::size_t>(dl)];
    const std::int64_t du = old_distance(slot, l.u);
    const std::int64_t dv = old_distance(slot, l.v);
    if ((du != kUnreached && du + l.cost <= dv) ||
        (dv != kUnreached && dv + l.cost <= du)) {
      return true;
    }
  }
  return false;
}

// Withdrawals only lengthen paths, and only for the routers whose tree path
// crossed a withdrawn link (the cut routers: the subtrees hanging off the
// withdrawn next hops); every other router keeps its distance and next
// hop. Dijkstra over the cut routers alone, seeded from their uncut
// neighbours, gives their new distances.
void OspfDomain::repair_withdrawn(std::size_t slot) {
  for (const std::int32_t dl : withdrawn_) {
    const DomainLink& l = links_[static_cast<std::size_t>(dl)];
    if (hop(slot, l.u) == l.at_u) list(l.u, kHasNew);
    if (hop(slot, l.v) == l.at_v) list(l.v, kHasNew);
  }
  for (std::size_t i = 0; i < list_ws_.size(); ++i) {  // grows: a BFS
    const std::int32_t x = list_ws_[i];
    for (const Arc& a : arcs(x)) {
      if (hop(slot, a.peer) == a.rev) list(a.peer, kHasNew);  // through x
    }
  }

  QuadHeap& heap = ws_.heap;
  heap.clear();
  for (const std::int32_t x : list_ws_) {
    std::int64_t best = kUnreached;
    for (const Arc& a : arcs(x)) {
      if (excluded_[static_cast<std::size_t>(a.dlink)] != 0 ||
          (flag_ws_[static_cast<std::size_t>(a.peer)] & kHasNew) != 0) {
        continue;
      }
      const std::int64_t pd = old_distance(slot, a.peer);
      if (pd != kUnreached) best = std::min(best, pd + a.cost);
    }
    new_ws_[static_cast<std::size_t>(x)] = best;
    if (best != kUnreached) heap.push(spf_key(best, x));
  }
  while (!heap.empty()) {
    const auto [d, x] = spf_entry(heap.pop());
    if (d != new_ws_[static_cast<std::size_t>(x)]) continue;
    for (const Arc& a : arcs(x)) {
      const auto pi = static_cast<std::size_t>(a.peer);
      if (excluded_[static_cast<std::size_t>(a.dlink)] != 0 ||
          (flag_ws_[pi] & kHasNew) == 0) {
        continue;
      }
      if (d + a.cost < new_ws_[pi]) {
        new_ws_[pi] = d + a.cost;
        heap.push(spf_key(d + a.cost, a.peer));
      }
    }
  }
  finish_repair(slot);
}

// Restorations only shorten paths. The decrease spreads Dijkstra-style from
// the restored links' endpoints; a next hop can change only at a router
// whose distance fell, at its neighbours (a link to it may have become
// tight) and at the restored links' endpoints.
void OspfDomain::repair_restored(std::size_t slot) {
  QuadHeap& heap = ws_.heap;
  const auto lower = [this, slot, &heap](std::int32_t x, std::int64_t d) {
    if (d < cur_distance(slot, x)) {
      new_ws_[static_cast<std::size_t>(x)] = d;
      list(x, kHasNew);
      heap.push(spf_key(d, x));
    }
  };
  heap.clear();
  for (const std::int32_t dl : restored_) {
    const DomainLink& l = links_[static_cast<std::size_t>(dl)];
    list(l.u, 0);
    list(l.v, 0);
    const std::int64_t du = cur_distance(slot, l.u);
    const std::int64_t dv = cur_distance(slot, l.v);
    if (du != kUnreached) lower(l.v, du + l.cost);
    if (dv != kUnreached) lower(l.u, dv + l.cost);
  }
  while (!heap.empty()) {
    const auto [d, x] = spf_entry(heap.pop());
    if (d != new_ws_[static_cast<std::size_t>(x)]) continue;
    for (const Arc& a : arcs(x)) {
      if (excluded_[static_cast<std::size_t>(a.dlink)] != 0) continue;
      list(a.peer, 0);
      lower(a.peer, d + a.cost);
    }
  }
  finish_repair(slot);
}

// Re-picks the next hop of every listed router and clears the flags.
// Every pick is made before any next hop is written: old_distance walks
// the tree as it stood.
void OspfDomain::finish_repair(std::size_t slot) {
  pick_ws_.clear();
  for (const std::int32_t x : list_ws_) {
    pick_ws_.push_back(lowest_tight_hop(slot, x));
  }
  for (std::size_t i = 0; i < list_ws_.size(); ++i) {
    set_hop(slot, list_ws_[i], pick_ws_[i]);
    flag_ws_[static_cast<std::size_t>(list_ws_[i])] = 0;
  }
  list_ws_.clear();
}

}  // namespace massf
