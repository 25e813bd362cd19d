// Pluggable link-model boundary: the contract between NetSim (event
// dispatch, TCP/UDP endpoints, application callbacks) and the thing that
// decides what happens when a packet — or an analytic background flow — is
// offered to a link.
//
// Two implementations ship behind this interface:
//
//   * PacketLinkModel (packet_link.hpp): the original per-interface
//     busy-until / drop-tail / loss-burst machinery, extracted verbatim.
//     Pure-packet runs produce bit-identical event streams and counters to
//     the pre-refactor NetSim.
//   * FluidLinkModel (fluid_link.hpp): the hybrid fast path. Packets take
//     the same drop-tail path, while *background* flows are modeled as
//     analytic max-min bandwidth-sharing events recomputed at window
//     boundaries — no per-packet events, which is what buys 10-100x more
//     simulated hosts at equal wall clock (ROADMAP "hybrid packet/flow
//     fidelity"; DESIGN.md §5k).
//
// Ownership and determinism contract (normative — see DESIGN.md §5k):
//
//   * Slot state. Per-directed-interface state (slot = link*2 + dir) is
//     owned by the LP of the transmitting endpoint; transmit()/
//     on_link_state()/on_loss_state() for a slot run only on that LP.
//     NetSim's node→LP table is fixed for the run, so a slot keeps its
//     owner from construction to the end.
//   * Fluid state. All background-flow state is coordinator-owned: it is
//     read and written only at window boundaries (Engine barrier
//     hooks, every LP quiescent) or before the run. During a window, LPs may only
//     *append* arrivals to their own per-LP admission queue and *read* the
//     per-slot fluid reservation published at the previous boundary — both
//     race-free under the threaded executors.
//   * Determinism. Boundary work must be a pure function of (merged
//     arrival queues in (when, lp, submit-order) order, slot state, window
//     floor). Events scheduled from a boundary must land at or after the
//     open window's end (floor + lookahead) — the engine enforces this.
//   * Faults. kEvLinkState/kEvLossState events address the slot owner's
//     LP; the model observes them via on_link_state/on_loss_state. How a
//     downed link affects in-flight background flows is model-defined
//     (FluidLinkModel re-paths at the next recompute and fails flows that
//     stay stalled past the configured timeout).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "pdes/engine.hpp"
#include "topology/network.hpp"

namespace massf {

class NetSim;
class ForwardingPlane;

namespace obs {
class Registry;
}  // namespace obs

enum class LinkModelKind : std::int32_t {
  kPacket = 0,  ///< packet-level only (the paper's model)
  kHybrid = 1,  ///< packet foreground + analytic fluid background flows
};

const char* link_model_kind_name(LinkModelKind kind);

/// NetFlow-style record of one finished flow — packet TCP or analytic
/// background (background flow ids carry FluidLinkModel::kFluidFlowBit).
struct FlowRecord {
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t bytes = 0;
  std::uint32_t tag = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;  ///< last-byte-acked / analytic-crossing time
  std::uint32_t retransmits = 0;
  bool failed = false;

  double duration_s() const { return to_seconds(finished_at - started_at); }
  /// Goodput in bits/second.
  double goodput_bps() const {
    const double d = duration_s();
    return d > 0 ? bytes * 8.0 / d : 0;
  }
};

/// Model-level knobs, a sub-struct of NetSimOptions.
struct LinkModelOptions {
  LinkModelKind kind = LinkModelKind::kPacket;
  /// Fraction of a link's bandwidth the packet path always keeps, however
  /// much fluid demand shares the link: packets must never starve, and the
  /// floor keeps the service-time math away from division blow-ups.
  double fluid_min_packet_share = 0.05;
  /// A background flow whose max-min rate stays zero (downed path, no
  /// route) for this long of virtual time is failed, mirroring the TCP
  /// give-up-after-consecutive-timeouts behavior.
  double fluid_stall_timeout_s = 60.0;
  /// Per-flow ceiling on the max-min rate (bps), modeling the TCP
  /// window/RTT throughput limit the packet path exhibits (a Reno flow
  /// cannot exceed ~window_bytes*8/RTT even on an idle link). 0 disables
  /// the cap, granting flows their full fair share.
  /// scenarios/hybrid-fidelity.dml calibrates it against the packet model's
  /// measured per-flow goodput, and the corpus test's fidelity bounds on
  /// that file's campaign fail without it.
  double fluid_flow_rate_cap_bps = 0.0;
};

/// Result of offering one packet to a link. The model decides fate and
/// timing; NetSim counts the outcome and schedules the arrival event, so
/// the event stream stays identical to the pre-refactor code.
struct TransmitResult {
  enum Status : std::int32_t {
    kSent = 0,      ///< scheduled: arrival lands at `arrive` on `peer`
    kLinkDown = 1,  ///< dropped: interface administratively down
    kLoss = 2,      ///< dropped: loss/corruption burst
    kQueueFull = 3, ///< dropped: drop-tail backlog exceeded
  };
  Status status = kSent;
  NodeId peer = kInvalidNode;
  SimTime arrive = 0;
};

class LinkModel {
 public:
  virtual ~LinkModel() = default;

  virtual LinkModelKind kind() const = 0;
  const char* name() const { return link_model_kind_name(kind()); }

  /// Called once from the NetSim constructor, after LP registration. The
  /// model may keep the NetSim pointer (completion dispatch, lp_of) and
  /// register boundary work (Engine::barrier_hooks). A pure-packet model
  /// registers nothing — a pure-packet run's hook sequence is untouched.
  virtual void attach(NetSim& sim, Engine& engine) = 0;

  // ---- packet path (runs on the transmitting endpoint's LP) ----

  /// Offers `p` for transmission from `from` over `link`. Advances the
  /// slot's busy-until clock on success. Does not count or schedule —
  /// the caller does, from the returned status/times.
  virtual TransmitResult transmit(Engine& engine, NodeId from, LinkId link,
                                  const Packet& p) = 0;

  // ---- control plane (fault-injection touchpoint) ----

  /// Takes `link` down (or up) at `when`, both directions: one
  /// kEvLinkState event per directed slot, addressed to the owner LP.
  virtual void schedule_link_state(Engine& engine, LinkId link, SimTime when,
                                   bool up) = 0;
  /// Sets the loss/corruption rate of `link` (both directions) at `when`.
  virtual void schedule_loss_state(Engine& engine, LinkId link, SimTime when,
                                   double loss_rate) = 0;
  /// Event-side effects, invoked by NetSim::handle on the owner LP.
  virtual void on_link_state(std::uint64_t slot, bool up) = 0;
  virtual void on_loss_state(std::uint64_t slot, std::uint32_t ppm) = 0;

  // ---- background flows (the flow-level fast path) ----

  /// True when the model can carry analytic background flows. NetSim falls
  /// back to packet TCP when false, so applications can request flow
  /// fidelity unconditionally.
  virtual bool supports_background_flows() const { return false; }

  /// Admits a background flow of `bytes` from `src` to `dst`. Callable
  /// before the run, from a handler (queued on the calling LP), or from a
  /// boundary hook. The flow is rated into the max-min share at the next
  /// recompute boundary >= `when`; completion fires NetSim's flow-complete
  /// callback *at a window boundary* with the analytic finish time
  /// recorded. Only meaningful when supports_background_flows().
  virtual void start_background_flow(Engine& engine, SimTime when, NodeId src,
                                     NodeId dst, std::uint32_t bytes,
                                     std::uint32_t tag);

  // ---- observation ----

  /// Bytes carried per directed slot (empty unless collect_link_stats).
  /// For hybrid models this includes fluid bytes, accrued at boundary
  /// granularity.
  virtual const std::vector<std::uint64_t>& link_bytes() const = 0;
  /// Carried bits over capacity for one direction of `link`. Throws
  /// kConfig when stats are off or `duration` is not positive.
  virtual double link_utilization(LinkId link, int direction,
                                  SimTime duration) const = 0;
  /// Finished background flows in completion order (empty for packet-only
  /// models; packet TCP records live in NetSim's per-LP state).
  virtual std::vector<FlowRecord> background_flow_records() const;
  /// Model-specific counters (net.bg.* for the fluid path). The packet
  /// model's counters are NetSim's and are published by NetSim itself.
  virtual void publish_metrics(obs::Registry& registry) const;
};

/// The model NetSim carries its traffic on: opts.link_model.kind's.
std::unique_ptr<LinkModel> make_link_model(const Network& net,
                                           const ForwardingPlane& fp,
                                           const struct NetSimOptions& opts);

}  // namespace massf
