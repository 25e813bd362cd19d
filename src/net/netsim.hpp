// Packet-level network simulation mapped onto the conservative PDES engine.
//
// NetSim instantiates one logical process per simulation engine node (the
// partition produced by the load balancer), owns every router/host/link of
// the virtual network, and simulates hop-by-hop packet forwarding with
// drop-tail output queues and TCP Reno flows. Applications (the traffic
// module and the online layer) interact through flows, app timers, and
// completion callbacks, all of which execute on the logical process owning
// the relevant host — which is what makes the threaded executor race-free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/link_model.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "pdes/engine.hpp"
#include "routing/forwarding.hpp"
#include "topology/network.hpp"

namespace massf {

namespace obs {
class Registry;
}  // namespace obs

enum NetEventType : std::int32_t {
  kEvArrive = 1,      ///< packet arrival (payload = encoded Packet)
  kEvFlowStart = 2,   ///< a = flow id
  kEvTcpTimeout = 3,  ///< a = flow id, b = timer epoch
  kEvAppTimer = 4,    ///< a = host, b/c = user payload
  kEvLinkState = 6,   ///< a = directed slot (link*2+dir), b = up (0/1)
  kEvNodeState = 7,   ///< a = router id, b = up (0/1); crash/restore
  kEvLossState = 8,   ///< a = directed slot, b = loss rate in ppm (0 = off)
  kEvFluidWake = 9,   ///< no-op heartbeat forcing a window boundary for the
                      ///< fluid model's completion/admission machinery
};

struct NetSimOptions {
  /// Per interface-direction output buffer (drop-tail) in bytes.
  double queue_capacity_bytes = 256 * 1024;
  /// Collect per-network-node processed-event counts (the traffic profile
  /// consumed by the PROF/HPROF mappings).
  bool collect_node_profile = false;
  /// A TCP sender abandons its flow after this many consecutive
  /// retransmission timeouts (a partitioned path would otherwise emit
  /// retransmissions until the simulation horizon).
  std::int32_t tcp_max_consecutive_timeouts = 8;
  /// Record one FlowRecord per finished (completed or abandoned) TCP flow.
  bool collect_flow_records = false;
  /// Seed for the deterministic loss-burst hash (fault injection). The drop
  /// decision for a packet is a pure function of (seed, directed slot,
  /// per-slot transmit counter), so it is bit-identical under both
  /// executors.
  std::uint64_t fault_seed = 1;
  /// Which LinkModel carries the traffic (and the fluid-path knobs); see
  /// link_model.hpp.
  LinkModelOptions link_model;
};

class NetSim {
 public:
  /// Invoked when a flow finishes. `failed == false`: the last byte arrived
  /// (runs on the receiver's LP). `failed == true`: the sender abandoned the
  /// flow after tcp_max_consecutive_timeouts (runs on the sender's LP) —
  /// applications see an explicit failure instead of a silently dying flow.
  using FlowCompleteFn = std::function<void(
      Engine&, NetSim&, FlowId flow, NodeId src_host, NodeId dst_host,
      std::uint32_t tag, bool failed)>;
  /// Invoked on the host's LP when an app timer fires.
  using AppTimerFn = std::function<void(Engine&, NetSim&, NodeId host,
                                        std::uint64_t b, std::uint64_t c)>;

  /// `router_lp` maps every router to its engine node; hosts follow their
  /// attachment router. Registers num_engine_nodes LPs with the engine.
  /// Checks the conservative contract: every link whose endpoints map to
  /// different LPs must have latency >= engine lookahead.
  NetSim(const Network& net, const ForwardingPlane& fp,
         std::span<const LpId> router_lp, Engine& engine,
         const NetSimOptions& opts);

  LpId lp_of(NodeId node) const;
  std::int32_t num_lps() const { return num_lps_; }

  /// The pluggable network model carrying this simulation's traffic. Link
  /// control (fault injection) and background flows live here; see
  /// link_model.hpp for the contract.
  LinkModel& link_model() { return *model_; }
  const LinkModel& link_model() const { return *model_; }

  /// Starts a TCP flow of `bytes` from src_host to dst_host at virtual time
  /// `when`. Callable before the run (initial traffic) or from a handler
  /// running on src_host's LP. `tag` is an application cookie delivered
  /// with the completion callback.
  FlowId start_flow(Engine& engine, SimTime when, NodeId src_host,
                    NodeId dst_host, std::uint32_t bytes, std::uint32_t tag);

  /// Starts a *background* flow at the fidelity the link model offers:
  /// under a hybrid model it is carried analytically (no per-packet
  /// events; completion fires at a window boundary with the analytic
  /// finish time); under a packet-only model it silently falls back to a
  /// packet TCP flow, so applications can request flow fidelity
  /// unconditionally. Returns true when the fluid fast path took it.
  /// Callable in the same contexts as start_flow, plus boundary hooks.
  bool start_background_flow(Engine& engine, SimTime when, NodeId src_host,
                             NodeId dst_host, std::uint32_t bytes,
                             std::uint32_t tag);

  /// Schedules an app timer on `host`'s LP.
  void schedule_app_timer(Engine& engine, NodeId host, SimTime when,
                          std::uint64_t b = 0, std::uint64_t c = 0);

  /// Fault injection: crashes (or restores) a router at virtual time
  /// `when`. While down, packets arriving at the router are blackholed
  /// (dropped_node_down) and app timers on its attached hosts are dropped
  /// (the hosts are off the network). Incident interfaces are NOT touched
  /// here — callers (the fault injector) down them with
  /// link_model().schedule_link_state so the control plane can observe
  /// the withdrawals.
  void schedule_node_state(Engine& engine, NodeId router, SimTime when,
                           bool up);

  void set_flow_complete(FlowCompleteFn fn) { on_flow_complete_ = std::move(fn); }
  void set_app_timer(AppTimerFn fn) { on_app_timer_ = std::move(fn); }

  struct Counters {
    std::uint64_t forwarded = 0;      ///< router-level packet hops
    std::uint64_t delivered = 0;      ///< data packets reaching their host
    std::uint64_t acks = 0;           ///< pure acks received by senders
    std::uint64_t dropped_queue = 0;  ///< drop-tail losses
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_link_down = 0;
    std::uint64_t dropped_node_down = 0;  ///< blackholed at a crashed router
    std::uint64_t dropped_loss = 0;       ///< loss/corruption-burst drops
    std::uint64_t app_timers_dropped = 0;  ///< timers on crashed-router hosts
    std::uint64_t retransmits = 0;
    std::uint64_t flows_started = 0;
    std::uint64_t flows_completed = 0;
    std::uint64_t flows_failed = 0;  ///< abandoned after repeated timeouts
    /// Always 0: nothing sends datagrams. Kept only because the end-to-end
    /// benchmark (bench_e2e) prints it in every cell's signature.
    std::uint64_t udp_delivered = 0;
  };
  /// Aggregated over all LPs; call after the run.
  Counters totals() const;

  /// Publishes totals() into `registry` as `net.*` counters (schema in
  /// DESIGN.md). Call after the run; with no registry the packet path
  /// carries no telemetry cost (the per-LP counters above always exist).
  void publish_metrics(obs::Registry& registry) const;

  /// Per-network-node processed-event counts (empty unless
  /// collect_node_profile). Index = NodeId.
  const std::vector<std::uint64_t>& node_profile() const { return profile_; }

  /// All finished flows: packet TCP flows merged across LPs in
  /// (LP, finish-order), followed by the link model's background flows in
  /// completion order. Requires collect_flow_records; call after the run.
  std::vector<FlowRecord> flow_records() const;

  const Network& network() const { return *net_; }
  const ForwardingPlane& forwarding() const { return *fp_; }

  /// Internal: event dispatch, called by the per-LP adapters.
  void handle(Engine& engine, const Event& ev);

  /// Internal (link models): dispatches the flow-complete callback for a
  /// finished background flow. Runs at a window boundary.
  void background_flow_finished(Engine& engine, const FlowRecord& rec);

  /// Internal (link models): charges `weight` processed-event equivalents
  /// to `node` in the traffic profile (no-op unless collect_node_profile).
  void count_background_events(NodeId node, std::uint64_t weight) {
    if (!profile_.empty()) profile_[static_cast<std::size_t>(node)] += weight;
  }

 private:
  struct LpState {
    std::vector<TcpSender> senders;
    std::unordered_map<FlowId, TcpReceiver> receivers;
    Counters counters;
    std::vector<FlowRecord> records;  ///< finished flows (sender side)
  };

  void record_flow(FlowId flow, const TcpSender& s, SimTime finished_at);

  static constexpr int kFlowLpShift = 40;
  LpId flow_lp(FlowId f) const { return static_cast<LpId>(f >> kFlowLpShift); }
  std::size_t flow_index(FlowId f) const {
    return static_cast<std::size_t>(f & ((1ULL << kFlowLpShift) - 1));
  }

  TcpSender& sender(FlowId f);

  void on_arrive(Engine& engine, const Packet& p);
  void deliver(Engine& engine, const Packet& p);
  void on_data(Engine& engine, const Packet& p);
  void on_ack(Engine& engine, const Packet& p);
  void on_flow_start(Engine& engine, FlowId flow);
  void on_timeout(Engine& engine, FlowId flow, std::uint64_t epoch);

  /// Transmits `p` from `from` over `link` through the drop-tail queue
  /// model; schedules the arrival event on the peer's LP.
  void transmit(Engine& engine, NodeId from, LinkId link, Packet p);

  void send_segment(Engine& engine, TcpSender& s, FlowId flow,
                    std::uint32_t seq, bool count_retransmit);
  void send_available(Engine& engine, TcpSender& s, FlowId flow);
  void arm_timer(Engine& engine, TcpSender& s, FlowId flow);

  void count_node_event(NodeId node);

  const Network* net_;
  const ForwardingPlane* fp_;
  /// Owning LP per node (routers and hosts); set by the constructor and
  /// never written again — the mapping is fixed for the run.
  std::vector<LpId> node_lp_;
  std::int32_t num_lps_ = 0;
  NetSimOptions opts_;

  /// The pluggable link model: per-interface state (busy-until clocks,
  /// up/down, loss cursors) and, under the hybrid model, the analytic
  /// background-flow machinery all live behind this boundary.
  std::unique_ptr<LinkModel> model_;

  /// Node up/down state (router crash); slot owned by the node's LP.
  std::vector<char> node_up_;

  std::vector<LpState> lp_state_;
  std::vector<std::uint64_t> profile_;

  FlowCompleteFn on_flow_complete_;
  AppTimerFn on_app_timer_;
};

}  // namespace massf
