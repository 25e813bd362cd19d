// The hybrid link model: foreground traffic stays packet-level (inherited
// drop-tail path), while *background* flows are carried analytically as
// max-min fair bandwidth shares — no per-packet events, which is the
// flow-level fast path the ROADMAP's hybrid-fidelity item asks for.
//
// How it works (full contract in DESIGN.md §5k):
//
//   * Admission. start_background_flow() appends to the calling LP's
//     private queue (single-writer under the threaded executors). At a
//     window boundary the queues are merged in (when, lp, submit-order)
//     order — an executor-independent order — and flows are admitted with
//     sequentially assigned ids.
//   * Rates. A recompute runs the classic max-min water-fill (WaterFill
//     below) over the directed-slot capacities left by the packet class
//     (measured from per-slot packet byte counters over the elapsed
//     windows). The fill keeps unblocked flows registered between
//     recomputes, so a recompute touches only the slots they cross and
//     the paths that changed. Recomputes are batched: at most one per
//     `kRecomputeEvery` (8) boundaries, plus one whenever a completion
//     falls due. Between recomputes, rates are piecewise-constant, so
//     per-flow progress and completion times are closed-form — the
//     fidelity error is bounded by the batching cadence times the window
//     width.
//   * Completions. Detected at boundaries; the recorded finish time is the
//     exact analytic crossing under the constant rate, while the
//     application callback fires at the boundary (documented skew <= one
//     cadence). A kEvFluidWake event pinned to LP 0 guarantees a boundary
//     exists near the earliest pending completion even when the packet
//     class goes quiet.
//   * Coupling. fluid -> packet: the published per-slot fluid reservation
//     shrinks the bandwidth the packet path sees (never below
//     fluid_min_packet_share). packet -> fluid: measured packet throughput
//     shrinks the capacity the water-fill distributes. Both sides are
//     refreshed at recompute boundaries only, keeping every read/write
//     inside the quiescent-point discipline.
//   * Faults. A slot that is administratively down (or lossy) contributes
//     zero (or loss-scaled) capacity; flows crossing it are re-pathed at
//     the next recompute and fail after fluid_stall_timeout_s of zero
//     progress, mirroring TCP's give-up behavior.
#pragma once

#include "net/packet_link.hpp"
#include "routing/forwarding.hpp"

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace massf {

/// Fills `path` with the directed slots (link * 2, +1 when the link is
/// crossed b -> a) of the forwarding route from host or router `src` to
/// `dst`. Leaves `path` empty when no route exists or the route loops.
void route_slots(const Network& net, const ForwardingPlane& fp, NodeId src,
                 NodeId dst, std::vector<std::uint32_t>& path);

/// Max-min fair rates over directed slots (progressive filling): each
/// round finds the bottleneck slot — the smallest fair share, ties to the
/// lowest slot id — and freezes every flow crossing it at that share.
///
/// Flows are registered once and stay registered across fills: add() and
/// remove() keep each slot's load and member list, and the set of loaded
/// slots (those some registered flow crosses), up to date in O(path
/// length). A fill then costs O(loaded slots + handles) to start plus the
/// rounds; slots no registered flow crosses are never read. Rates are a
/// function of the registered paths alone, whatever the order they were
/// added in or the handles they got.
class WaterFill {
 public:
  explicit WaterFill(std::size_t num_slots);

  /// Registers a flow over the directed slots of `path` and returns its
  /// handle: the most recently removed one, else the next unused. A slot
  /// may repeat; each crossing loads it once. An empty path registers a
  /// blocked flow, which loads nothing and whose rate is 0.
  std::uint32_t add(std::span<const std::uint32_t> path);
  /// Unregisters flow `h`, whose handle a later add() may return.
  void remove(std::uint32_t h);

  /// The registered flows' rates, indexed by handle (0 for blocked flows
  /// and free handles), valid until the next fill.
  /// `capacity(slot)` is called once per loaded slot and must return a
  /// finite value >= 0. A positive `rate_cap` bounds every rate.
  template <class Capacity>
  const std::vector<double>& fill(const Capacity& capacity, double rate_cap) {
    cap_.resize(slot_.size());
    for (std::size_t d = 0; d < slot_.size(); ++d) cap_[d] = capacity(slot_[d]);
    return run_rounds(rate_cap);
  }

  /// One-shot fill: `paths[i]` becomes flow i, in place of every flow
  /// registered before (an empty path marks a blocked flow).
  template <class Capacity>
  const std::vector<double>& fill(
      std::span<const std::span<const std::uint32_t>> paths,
      const Capacity& capacity, double rate_cap) {
    clear();
    for (const std::span<const std::uint32_t> path : paths) add(path);
    return fill(capacity, rate_cap);
  }

  /// The loaded slots, in no particular order.
  std::span<const std::uint32_t> loaded_slots() const { return slot_; }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  /// One slot crossing of a registered flow: a node of its slot's member
  /// list (next/prev) and of its flow's crossing list (flow_next, which
  /// also links the free nodes).
  struct Crossing {
    std::uint32_t flow;
    std::uint32_t slot;
    std::uint32_t next;
    std::uint32_t prev;
    std::uint32_t flow_next;
  };
  enum : char { kFree, kBlocked, kLoading };

  /// Unregisters every flow; the following adds return 0, 1, 2, ...
  void clear();
  const std::vector<double>& run_rounds(double rate_cap);
  void drop_slot(std::size_t d);

  // Membership, kept across fills.
  std::vector<std::int32_t> dense_;  ///< slot -> loaded index, -1 = unloaded
  std::vector<std::uint32_t> slot_;  ///< loaded index -> slot
  std::vector<std::int32_t> load_;   ///< crossings, per loaded index
  std::vector<std::uint32_t> head_;  ///< first crossing, per loaded index
  std::vector<Crossing> crossings_;
  std::uint32_t free_crossing_ = kNone;
  std::vector<std::uint32_t> first_;  ///< per handle: first crossing
  std::vector<char> state_;           ///< per handle: kFree/kBlocked/kLoading
  std::vector<std::uint32_t> free_handles_;
  std::size_t loading_ = 0;  ///< handles in kLoading

  // Per-fill workspace.
  std::vector<double> cap_;         ///< residual capacity, per loaded index
  std::vector<std::int32_t> left_;  ///< unfrozen crossings, per loaded index
  std::vector<double> share_;       ///< cap_ / left_ while left_ > 0
  std::vector<std::uint32_t> live_;  ///< bottleneck candidates
  std::vector<char> listed_;         ///< per loaded index: in live_
  std::vector<char> frozen_;         ///< per handle
  std::vector<double> rates_;        ///< per handle
};

class FluidLinkModel : public PacketLinkModel {
 public:
  /// Background-flow ids carry this bit so they can never collide with
  /// packet-TCP FlowIds (which encode the sender's LP in the high bits).
  static constexpr FlowId kFluidFlowBit = 1ULL << 63;

  FluidLinkModel(const Network& net, const ForwardingPlane& fp,
                 const NetSimOptions& opts);

  LinkModelKind kind() const override { return LinkModelKind::kHybrid; }
  void attach(NetSim& sim, Engine& engine) override;

  TransmitResult transmit(Engine& engine, NodeId from, LinkId link,
                          const Packet& p) override;
  void on_link_state(std::uint64_t slot, bool up) override;
  void on_loss_state(std::uint64_t slot, std::uint32_t ppm) override;

  bool supports_background_flows() const override { return true; }
  void start_background_flow(Engine& engine, SimTime when, NodeId src,
                             NodeId dst, std::uint32_t bytes,
                             std::uint32_t tag) override;

  std::vector<FlowRecord> background_flow_records() const override;
  void publish_metrics(obs::Registry& registry) const override;

  struct BgCounters {
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t bytes_completed = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t wakes = 0;
  };
  const BgCounters& bg_counters() const { return bg_; }
  /// Currently-admitted background flows (post-run or boundary use).
  std::size_t active_background_flows() const { return active_.size(); }

 private:
  struct Pending {
    SimTime when = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint32_t bytes = 0;
    std::uint32_t tag = 0;
  };
  static constexpr std::uint32_t kNoHandle =
      std::numeric_limits<std::uint32_t>::max();
  struct ActiveFlow {
    FlowId flow = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint32_t bytes = 0;
    std::uint32_t tag = 0;
    SimTime started_at = 0;
    double remaining = 0;      ///< bytes left at `advanced_to_`
    double rate_bps = 0;       ///< max-min share set at the last recompute
    SimTime stall_since = -1;  ///< first boundary with zero rate, -1 = none
    std::vector<std::uint32_t> path;  ///< directed slots src->dst
    /// Water-fill handle while the path is unblocked, else kNoHandle.
    std::uint32_t handle = kNoHandle;
  };

  void on_boundary(Engine& engine, SimTime floor);
  void advance_to(Engine& engine, SimTime floor);
  void admit_pending(SimTime floor);
  void recompute(Engine& engine, SimTime floor);
  void repath(ActiveFlow& f) const;
  bool path_blocked(const ActiveFlow& f) const;
  void drop_flows(const std::vector<char>& dead);
  void finish_flow(Engine& engine, const ActiveFlow& f, SimTime finished_at,
                   bool failed);
  void schedule_wake(Engine& engine, SimTime floor);
  bool has_pending() const;
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  const ForwardingPlane* fp_;

  /// Per-LP admission queues; index lp+1, entry 0 is the pre-run /
  /// boundary-hook queue. Only the owning LP appends during a window; the
  /// boundary hook drains them at quiescent points.
  std::vector<std::vector<Pending>> pending_;

  // Coordinator-owned fluid state (boundary hook only).
  std::vector<ActiveFlow> active_;
  WaterFill water_fill_;  ///< registers every unblocked active flow
  std::uint64_t next_flow_seq_ = 0;
  std::uint64_t boundaries_ = 0;
  std::int64_t last_recompute_boundary_ = 0;
  SimTime advanced_to_ = 0;         ///< progress integrated up to here
  SimTime last_recompute_floor_ = -1;
  SimTime earliest_completion_ = kNever;
  SimTime earliest_deadline_ = kNever;  ///< stall-timeout deadlines
  SimTime next_wake_ = -1;
  BgCounters bg_;
  std::vector<FlowRecord> records_;  ///< finished flows, completion order

  /// Published fluid reservation per directed slot: written at recompute
  /// boundaries, read by the packet path on owner LPs during windows.
  std::vector<double> fluid_share_bps_;
  std::vector<std::uint32_t> published_;  ///< slots the last publish set
  /// Packet bytes a slot carried in the recompute interval `epoch`. Owner
  /// LPs count them during windows; a counter tagged with an earlier
  /// interval is reset by the first packet of the current one, and a
  /// recompute reads only the loaded slots' counters.
  struct PacketBytes {
    std::uint64_t epoch = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<PacketBytes> packet_bytes_;
  /// The current recompute interval: written by each recompute, read by
  /// the packet path on owner LPs during windows.
  std::uint64_t epoch_ = 0;

  /// Set by on_link_state/on_loss_state on owner LPs; consumed at the next
  /// boundary. Relaxed is enough: the value is only examined at quiescent
  /// points, where every window-side store is already ordered before the
  /// hook by the executor's epoch/barrier synchronization.
  std::atomic<bool> link_dirty_{false};
  bool dirty_ = false;  ///< membership/topology changed since last recompute
};

}  // namespace massf
