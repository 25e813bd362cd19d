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
//     windows); it touches only the slots unblocked flows cross. Recomputes
//     are batched: at most one per `kRecomputeEvery` (8) boundaries,
//     plus one whenever a completion falls due. Between recomputes, rates
//     are piecewise-constant, so per-flow progress and completion times
//     are closed-form — the fidelity error is bounded by the batching
//     cadence times the window width.
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
#include <functional>
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
/// One fill costs at most O(sum of unblocked path lengths + loaded slots
/// x rounds): slots no unblocked flow crosses are never read, and the
/// workspace is reused across fills.
class WaterFill {
 public:
  explicit WaterFill(std::size_t num_slots);

  /// `paths[i]` is flow i's slot path; an empty path marks a blocked flow,
  /// whose rate is 0. `capacity(slot)` is called once per slot an
  /// unblocked flow crosses and must return a finite value >= 0. A
  /// positive `rate_cap` bounds every rate. Returns one rate per flow,
  /// valid until the next fill.
  const std::vector<double>& fill(
      std::span<const std::span<const std::uint32_t>> paths,
      const std::function<double(std::uint32_t)>& capacity, double rate_cap);

 private:
  std::vector<std::int32_t> dense_;  ///< slot -> loaded index, -1 = unloaded
  std::vector<std::uint32_t> slot_;  ///< loaded index -> slot
  std::vector<double> cap_;          ///< residual capacity, per loaded index
  std::vector<std::int32_t> load_;   ///< unfrozen crossings, per loaded index
  std::vector<double> share_;        ///< cap_ / load_ while load_ > 0
  /// Flows crossing each loaded slot, in flow-index order:
  /// members_[first_[d] .. first_[d + 1]).
  std::vector<std::size_t> first_;
  std::vector<std::uint32_t> members_;
  std::vector<std::uint32_t> live_;  ///< bottleneck candidates
  std::vector<char> listed_;         ///< per loaded index: in live_
  std::vector<char> frozen_;
  std::vector<double> rates_;
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
  WaterFill water_fill_;
  std::vector<std::span<const std::uint32_t>> fill_paths_;  ///< fill input
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
  /// Packet bytes per slot, accumulated by owner LPs during windows and
  /// differenced at recompute boundaries to measure packet throughput.
  std::vector<std::uint64_t> packet_window_bytes_;
  std::vector<std::uint64_t> packet_bytes_snapshot_;
  std::vector<double> packet_bps_;  ///< measured packet rate per slot

  /// Set by on_link_state/on_loss_state on owner LPs; consumed at the next
  /// boundary. Relaxed is enough: the value is only examined at quiescent
  /// points, where every window-side store is already ordered before the
  /// hook by the executor's epoch/barrier synchronization.
  std::atomic<bool> link_dirty_{false};
  bool dirty_ = false;  ///< membership/topology changed since last recompute
};

}  // namespace massf
