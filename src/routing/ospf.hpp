// OSPF-style intra-domain routing: shortest paths by cumulative link
// latency, computed as one reverse shortest-path tree per *destination*
// router. Computing trees per destination (rather than per source) keeps
// large networks feasible: only routers that actually terminate or egress
// traffic need tables.
//
// Tables are bit-packed: each destination owns a slot of whole 64-bit
// words holding one field per router, the index of its next hop in the
// router's adjacency (sorted by link id). A router with d links gets
// bit_width(d) bits, whose all-ones value means "none"; no field straddles
// a word, so a lookup reads the destination's slot, one word, the router's
// field descriptor and its adjacency. A batch of new destinations builds
// its trees on every CPU (util/parallel.hpp). A link-state batch repairs
// only the trees it can change (dynamic SPT maintenance after Ramalingam &
// Reps, J. Algorithms 1996, and Narváez, Siu & Tzeng, IEEE/ACM ToN 8(6),
// 2000); the tables stay a pure function of (topology, excluded links):
// next hop = lowest-id usable link on a shortest path, whatever order the
// SPF queue pops equal distances in. Tree builds and both repairs run
// Dijkstra on the engine's 4-ary heap (util/quad_heap.hpp), with keys
// distance << 64 | router.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "topology/network.hpp"
#include "util/check.hpp"
#include "util/quad_heap.hpp"

namespace massf {

/// Shortest-path routing over a set of member routers of one routing domain
/// (a whole flat network, or the routers of one AS using only intra-AS
/// links).
class OspfDomain {
 public:
  /// `members` are the global router ids of the domain, a contiguous id
  /// range in any order (a router's local index is its offset from the
  /// lowest). Only links with both endpoints in `members` (and not marked
  /// inter_as unless `use_inter_as_links`) are considered; their latencies
  /// must be > 0. Any router degree is supported: a next hop takes as many
  /// bits as the router's degree needs.
  OspfDomain(const Network& net, std::span<const NodeId> members,
             bool use_inter_as_links);

  /// Sizes the tables for `count` destinations in one allocation, so later
  /// add_destinations calls neither reallocate nor copy them.
  void reserve_destinations(std::size_t count);

  /// Computes the reverse shortest-path tree toward every destination in
  /// `dests` (members; registered ones and repeats are skipped) and stores
  /// the per-router next hops. Pending exclusions are applied to the
  /// existing tables first, so every table describes the same link states.
  /// The tables grow once and the new trees are built on every CPU.
  void add_destinations(std::span<const NodeId> dests);
  void add_destination(NodeId dest) { add_destinations({&dest, 1}); }

  bool has_destination(NodeId dest) const { return slot_of(dest) >= 0; }

  /// Next link from `from` (a member router) toward `dest` (a registered
  /// destination). Returns kInvalidLink when from == dest or unreachable.
  LinkId next_link(NodeId from, NodeId dest) const {
    const std::int32_t s = slot_of(dest);
    MASSF_CHECK(s >= 0);
    const std::int32_t f = local_index(from);
    MASSF_CHECK(f >= 0);
    const HopField& field = field_[static_cast<std::size_t>(f)];
    const auto hop = static_cast<Hop>(
        words_[static_cast<std::size_t>(s) * stride_ + field.word] >>
        field.shift) & field.mask;
    return hop == field.mask
               ? kInvalidLink
               : arc_link_[static_cast<std::size_t>(field.arc_begin) + hop];
  }

  /// Next router on the path (the peer across next_link).
  NodeId next_hop(const Network& net, NodeId from, NodeId dest) const;

  /// Administratively excludes (or restores) a link; takes effect at the
  /// next recompute(). Models the SPF view after an LSA withdrawal. Links
  /// outside the domain are ignored.
  void set_link_excluded(LinkId link, bool excluded);

  /// Brings every registered destination's tree up to date with the
  /// exclusions changed since the last recompute, repairing only the trees
  /// the batch can change.
  void recompute();

  std::size_t num_destinations() const { return dests_.size(); }

  /// Bytes of next-hop table: registered destinations x the words of one
  /// slot.
  std::size_t table_bytes() const {
    return dests_.size() * stride_ * sizeof(std::uint64_t);
  }

 private:
  // A next hop: the index of the link in its router's adjacency. Unpacked
  // (in workspaces and through hop/set_hop) "none" is kNone.
  using Hop = std::uint32_t;
  static constexpr Hop kNone = ~Hop{0};  // the destination, or unreachable

  // Where a router's next hop sits in every slot: bits [shift, shift +
  // width) of word `word`, where mask is the all-ones value of that width
  // and means "none". A router with no links has width 0 (word 0, mask 0),
  // so it always reads as none.
  struct HopField {
    std::uint32_t word;
    std::uint32_t shift;
    Hop mask;
    std::int32_t arc_begin;  // the router's first arc, for next_link
  };
  // One direction of a domain link, in the adjacency of its tail router.
  struct Arc {
    std::int64_t cost;   // latency, ns
    std::int32_t dlink;  // domain link index (order of the global id)
    std::int32_t peer;   // local index of the head router
    Hop rev;             // the link's index in the peer's adjacency
  };
  struct DomainLink {
    LinkId id;
    std::int32_t u, v;  // local endpoints
    Hop at_u, at_v;     // the link's index in u's and v's adjacency
    std::int64_t cost;
  };
  // Dijkstra state of one thread building trees. The queue's keys pack
  // (distance, router) into one integer (ospf.cpp: spf_key).
  struct SptWorkspace {
    std::vector<std::int64_t> dist;  // per router
    std::vector<Hop> hop;            // per router, the tree being built
    QuadHeap heap;
  };

  std::int32_t local_index(NodeId router) const {
    const auto off = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(router) - base_);
    return off < n_ ? static_cast<std::int32_t>(off) : -1;
  }
  std::int32_t slot_of(NodeId dest) const {
    const std::int32_t d = local_index(dest);
    return d < 0 ? -1 : slot_[static_cast<std::size_t>(d)];
  }
  std::span<const Arc> arcs(std::int32_t x) const {
    const auto i = static_cast<std::size_t>(x);
    return {arcs_.data() + arc_begin_[i],
            static_cast<std::size_t>(arc_begin_[i + 1] - arc_begin_[i])};
  }
  std::size_t arc_index(std::int32_t x, Hop hop) const {
    return static_cast<std::size_t>(arc_begin_[static_cast<std::size_t>(x)]) +
           hop;
  }
  // Router x's next hop in the tree of `slot`, or kNone; and its update.
  Hop hop(std::size_t slot, std::int32_t x) const {
    const HopField& f = field_[static_cast<std::size_t>(x)];
    const auto h =
        static_cast<Hop>(words_[slot * stride_ + f.word] >> f.shift) & f.mask;
    return h == f.mask ? kNone : h;
  }
  void set_hop(std::size_t slot, std::int32_t x, Hop h) {
    const HopField& f = field_[static_cast<std::size_t>(x)];
    std::uint64_t& w = words_[slot * stride_ + f.word];
    w = (w & ~(std::uint64_t{f.mask} << f.shift)) |
        (std::uint64_t{h & f.mask} << f.shift);
  }
  SptWorkspace make_workspace() const;

  // Tree construction and repair (ospf.cpp). build_tree touches only its
  // slot's words and `ws`, so trees of distinct slots build concurrently.
  void build_tree(std::size_t slot, SptWorkspace& ws);
  void begin_tree();
  std::int64_t old_distance(std::size_t slot, std::int32_t x);
  std::int64_t cur_distance(std::size_t slot, std::int32_t x);
  Hop lowest_tight_hop(std::size_t slot, std::int32_t x);
  void list(std::int32_t x, std::uint8_t flags);
  bool uses_withdrawn(std::size_t slot) const;
  bool gains_restored(std::size_t slot);
  void repair_withdrawn(std::size_t slot);
  void repair_restored(std::size_t slot);
  void finish_repair(std::size_t slot);

  std::size_t n_ = 0;  // member count
  NodeId base_ = 0;    // lowest member id
  std::vector<std::int32_t> slot_;  // per router: table slot or -1

  std::vector<DomainLink> links_;  // sorted by global id
  std::vector<std::int32_t> arc_begin_;
  std::vector<Arc> arcs_;         // per router, sorted by link id
  std::vector<LinkId> arc_link_;  // global id of each arc's link
  std::vector<std::uint8_t> excluded_;  // per domain link, as requested
  std::vector<std::uint8_t> applied_;   // per domain link, as in the tables
  std::vector<std::int32_t> changed_;   // links flipped since recompute
  std::vector<std::int32_t> withdrawn_, restored_;  // the batch at hand

  std::vector<std::int32_t> dests_;  // slot -> local index
  std::vector<HopField> field_;      // per router
  std::size_t stride_ = 1;           // words per slot
  std::vector<std::uint64_t> words_;  // stride_ words per slot

  // Workspace of the thread that owns the domain, reused across trees,
  // all per router unless noted: Dijkstra distances, hops and heap
  // (ws_.dist holds the memoized old distances during a repair, valid
  // where stamp_ws_ == epoch_), repaired distances, flags, the climb stack
  // of (router, parent arc), and the routers to re-pick with their picks.
  SptWorkspace ws_;
  std::vector<std::int64_t> new_ws_;
  std::vector<std::uint32_t> stamp_ws_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint8_t> flag_ws_;
  std::vector<std::pair<std::int32_t, std::int32_t>> stack_ws_;
  std::vector<std::int32_t> list_ws_;
  std::vector<Hop> pick_ws_;
};

}  // namespace massf
