#include "net/netsim.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace massf {
namespace {

/// Engine adapter: forwards every event of one LP to the shared NetSim.
class PartitionLp final : public LogicalProcess {
 public:
  explicit PartitionLp(NetSim* sim) : sim_(sim) {}
  void handle(Engine& engine, const Event& event) override {
    sim_->handle(engine, event);
  }

 private:
  NetSim* sim_;
};

}  // namespace

NetSim::NetSim(const Network& net, const ForwardingPlane& fp,
               std::span<const LpId> router_lp, Engine& engine,
               const NetSimOptions& opts)
    : net_(&net), fp_(&fp), opts_(opts),
      model_(make_link_model(net, fp, opts)) {
  MASSF_CHECK(static_cast<NodeId>(router_lp.size()) == net.num_routers);

  node_lp_.resize(net.nodes.size());
  for (NodeId r = 0; r < net.num_routers; ++r) {
    const LpId lp = router_lp[static_cast<std::size_t>(r)];
    MASSF_CHECK(lp >= 0);
    node_lp_[static_cast<std::size_t>(r)] = lp;
    num_lps_ = std::max(num_lps_, lp + 1);
  }
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    node_lp_[static_cast<std::size_t>(h)] =
        node_lp_[static_cast<std::size_t>(
            net.nodes[static_cast<std::size_t>(h)].attach_router)];
  }

  // Conservative contract: cross-LP links must respect the lookahead.
  for (const NetLink& l : net.links) {
    if (lp_of(l.a) != lp_of(l.b)) {
      MASSF_CHECK(l.latency >= engine.options().lookahead);
    }
  }

  node_up_.assign(net.nodes.size(), 1);
  lp_state_.resize(static_cast<std::size_t>(num_lps_));
  if (opts_.collect_node_profile) {
    profile_.assign(net.nodes.size(), 0);
  }

  MASSF_CHECK(engine.num_lps() == 0);  // NetSim owns the LP layout
  for (std::int32_t i = 0; i < num_lps_; ++i) {
    engine.add_lp(std::make_unique<PartitionLp>(this));
  }
  model_->attach(*this, engine);
}

LpId NetSim::lp_of(NodeId node) const {
  MASSF_CHECK(node >= 0 &&
              node < static_cast<NodeId>(node_lp_.size()));
  return node_lp_[static_cast<std::size_t>(node)];
}

TcpSender& NetSim::sender(FlowId f) {
  auto& senders = lp_state_[static_cast<std::size_t>(flow_lp(f))].senders;
  const std::size_t idx = flow_index(f);
  MASSF_CHECK(idx < senders.size());
  return senders[idx];
}

void NetSim::count_node_event(NodeId node) {
  if (!profile_.empty()) ++profile_[static_cast<std::size_t>(node)];
}

FlowId NetSim::start_flow(Engine& engine, SimTime when, NodeId src_host,
                          NodeId dst_host, std::uint32_t bytes,
                          std::uint32_t tag) {
  MASSF_CHECK(net_->is_host(src_host) && net_->is_host(dst_host));
  MASSF_CHECK(bytes > 0);
  const LpId lp = lp_of(src_host);
  // Flow records may be created before the run (main thread) or from a
  // handler executing on the sender's LP; both keep the arena single-writer.
  MASSF_CHECK(engine.current_lp() == kInvalidLp || engine.current_lp() == lp);

  auto& senders = lp_state_[static_cast<std::size_t>(lp)].senders;
  const FlowId flow = (static_cast<FlowId>(lp) << kFlowLpShift) |
                      static_cast<FlowId>(senders.size());
  TcpSender s;
  s.src = src_host;
  s.dst = dst_host;
  s.size = bytes;
  s.tag = tag;
  s.rto = kInitialRto;
  senders.push_back(s);
  ++lp_state_[static_cast<std::size_t>(lp)].counters.flows_started;

  engine.schedule(lp, when, kEvFlowStart, flow);
  return flow;
}

void NetSim::schedule_app_timer(Engine& engine, NodeId host, SimTime when,
                                std::uint64_t b, std::uint64_t c) {
  MASSF_CHECK(net_->is_host(host));
  engine.schedule(lp_of(host), when, kEvAppTimer,
                  static_cast<std::uint64_t>(host), b, c);
}

bool NetSim::start_background_flow(Engine& engine, SimTime when,
                                   NodeId src_host, NodeId dst_host,
                                   std::uint32_t bytes, std::uint32_t tag) {
  MASSF_CHECK(net_->is_host(src_host) && net_->is_host(dst_host));
  MASSF_CHECK(bytes > 0);
  if (!model_->supports_background_flows()) {
    // Packet-only model: honor the request at packet fidelity so traffic
    // apps can select fidelity per flow without caring which model runs.
    start_flow(engine, when, src_host, dst_host, bytes, tag);
    return false;
  }
  model_->start_background_flow(engine, when, src_host, dst_host, bytes, tag);
  return true;
}

void NetSim::background_flow_finished(Engine& engine, const FlowRecord& rec) {
  if (on_flow_complete_) {
    on_flow_complete_(engine, *this, rec.flow, rec.src, rec.dst, rec.tag,
                      rec.failed);
  }
}

void NetSim::schedule_node_state(Engine& engine, NodeId router, SimTime when,
                                 bool up) {
  MASSF_CHECK(net_->is_router(router));
  engine.schedule(lp_of(router), when, kEvNodeState,
                  static_cast<std::uint64_t>(router), up ? 1 : 0);
}

void NetSim::handle(Engine& engine, const Event& ev) {
  switch (ev.type) {
    case kEvArrive: {
      const Packet p = Packet::decode(ev);
      count_node_event(p.arrive);
      on_arrive(engine, p);
      break;
    }
    case kEvFlowStart: {
      count_node_event(sender(ev.a).src);
      on_flow_start(engine, ev.a);
      break;
    }
    case kEvTcpTimeout:
      on_timeout(engine, ev.a, ev.b);
      break;
    case kEvAppTimer: {
      const auto host = static_cast<NodeId>(ev.a);
      const NodeId ar =
          net_->nodes[static_cast<std::size_t>(host)].attach_router;
      if (ar != kInvalidNode && !node_up_[static_cast<std::size_t>(ar)]) {
        // The host's attachment router crashed: the host is off the
        // network, so its pending application events are dropped.
        ++lp_state_[static_cast<std::size_t>(lp_of(host))]
              .counters.app_timers_dropped;
        break;
      }
      count_node_event(host);
      if (on_app_timer_) on_app_timer_(engine, *this, host, ev.b, ev.c);
      break;
    }
    case kEvLinkState: {
      // The slot's state is owned by the transmitting endpoint's LP, which
      // is where this event was addressed.
      model_->on_link_state(ev.a, ev.b != 0);
      break;
    }
    case kEvNodeState: {
      // Addressed to the node's LP, which owns every read of this slot.
      node_up_[ev.a] = ev.b != 0;
      break;
    }
    case kEvLossState: {
      model_->on_loss_state(ev.a, static_cast<std::uint32_t>(ev.b));
      break;
    }
    case kEvFluidWake:
      // Heartbeat: its only job was forcing the window boundary that just
      // ran the fluid model's hook.
      break;
    default:
      MASSF_CHECK(false && "unknown event type");
  }
}

void NetSim::transmit(Engine& engine, NodeId from, LinkId link, Packet p) {
  const TransmitResult res = model_->transmit(engine, from, link, p);
  auto& counters = lp_state_[static_cast<std::size_t>(lp_of(from))].counters;
  switch (res.status) {
    case TransmitResult::kLinkDown:
      ++counters.dropped_link_down;
      return;
    case TransmitResult::kLoss:
      ++counters.dropped_loss;
      return;
    case TransmitResult::kQueueFull:
      ++counters.dropped_queue;
      return;
    case TransmitResult::kSent:
      break;
  }
  ++counters.forwarded;
  p.arrive = res.peer;
  Event ev;
  p.encode(ev);
  engine.schedule(lp_of(res.peer), res.arrive, kEvArrive, ev.a, ev.b, ev.c,
                  ev.d);
}

void NetSim::on_arrive(Engine& engine, const Packet& p) {
  const NodeId here = p.arrive;
  if (!node_up_[static_cast<std::size_t>(here)]) {
    // Crashed router: packets in flight toward it are blackholed.
    ++lp_state_[static_cast<std::size_t>(lp_of(here))]
          .counters.dropped_node_down;
    return;
  }
  if (here == p.dst) {
    deliver(engine, p);
    return;
  }
  MASSF_CHECK(net_->is_router(here));
  const LinkId next = fp_->next_link(here, p.dst);
  if (next == kInvalidLink) {
    ++lp_state_[static_cast<std::size_t>(lp_of(here))]
          .counters.dropped_no_route;
    return;
  }
  transmit(engine, here, next, p);
}

void NetSim::deliver(Engine& engine, const Packet& p) {
  auto& state = lp_state_[static_cast<std::size_t>(lp_of(p.dst))];
  if (p.flags & kFlagAck) {
    ++state.counters.acks;
    on_ack(engine, p);
    return;
  }
  ++state.counters.delivered;
  on_data(engine, p);
}

void NetSim::on_data(Engine& engine, const Packet& p) {
  auto& state = lp_state_[static_cast<std::size_t>(lp_of(p.dst))];
  TcpReceiver& r = state.receivers[p.flow];
  if (r.src == kInvalidNode) {
    r.src = p.src;
    r.dst = p.dst;
  }
  r.on_data(p.seq, p.len);
  if (p.flags & kFlagFin) {
    r.fin_seen = true;
    r.fin_seq = p.seq + p.len;
  }

  // Cumulative acknowledgment back to the sender (tag echoed via the data
  // packet's ack field so the completion callback can carry it).
  Packet ack;
  ack.src = p.dst;
  ack.dst = p.src;
  ack.flow = p.flow;
  ack.flags = kFlagAck;
  ack.ack = r.expected;
  ack.arrive = p.dst;
  const auto inc = net_->incident(p.dst);
  MASSF_CHECK(inc.size() == 1);
  transmit(engine, p.dst, inc[0].link, ack);

  if (r.all_received() && !r.completed) {
    r.completed = true;
    ++state.counters.flows_completed;
    if (on_flow_complete_) {
      on_flow_complete_(engine, *this, p.flow, r.src, r.dst, p.ack,
                        /*failed=*/false);
    }
  }
}

void NetSim::on_flow_start(Engine& engine, FlowId flow) {
  TcpSender& s = sender(flow);
  s.started_at = engine.now();
  send_available(engine, s, flow);
  arm_timer(engine, s, flow);
}

void NetSim::record_flow(FlowId flow, const TcpSender& s,
                         SimTime finished_at) {
  if (!opts_.collect_flow_records) return;
  FlowRecord r;
  r.flow = flow;
  r.src = s.src;
  r.dst = s.dst;
  r.bytes = s.size;
  r.tag = s.tag;
  r.started_at = s.started_at;
  r.finished_at = finished_at;
  r.retransmits = s.total_retransmits;
  r.failed = s.failed;
  lp_state_[static_cast<std::size_t>(lp_of(s.src))].records.push_back(r);
}

void NetSim::send_segment(Engine& engine, TcpSender& s, FlowId flow,
                          std::uint32_t seq, bool count_retransmit) {
  const std::uint32_t len = std::min(kMss, s.size - seq);
  MASSF_CHECK(len > 0);
  Packet p;
  p.src = s.src;
  p.dst = s.dst;
  p.flow = flow;
  p.seq = seq;
  p.len = len;
  p.ack = s.tag;  // data packets repurpose the ack field for the app tag
  if (seq + len == s.size) p.flags |= kFlagFin;
  p.arrive = s.src;
  if (count_retransmit) {
    ++lp_state_[static_cast<std::size_t>(lp_of(s.src))]
          .counters.retransmits;
    ++s.total_retransmits;
  }
  const auto inc = net_->incident(s.src);
  MASSF_CHECK(inc.size() == 1);
  transmit(engine, s.src, inc[0].link, p);
}

void NetSim::send_available(Engine& engine, TcpSender& s, FlowId flow) {
  // A cumulative ack can overtake a timeout-rewound next_seq (reordered
  // pre-timeout acks); never re-send already-acked bytes.
  if (s.next_seq < s.acked) s.next_seq = s.acked;
  while (s.next_seq < s.size) {
    const std::uint32_t len = std::min(kMss, s.size - s.next_seq);
    const std::uint32_t flight_after = s.next_seq + len - s.acked;
    if (static_cast<double>(flight_after) > s.cwnd &&
        s.next_seq > s.acked) {
      break;  // window full (always allow at least one segment in flight)
    }
    send_segment(engine, s, flow, s.next_seq, /*count_retransmit=*/false);
    if (s.rtt_sent_at < 0 && !s.in_recovery) {
      s.rtt_sent_at = engine.now();
      s.rtt_seq = s.next_seq + len;
    }
    s.next_seq += len;
  }
}

void NetSim::arm_timer(Engine& engine, TcpSender& s, FlowId flow) {
  ++s.timer_epoch;
  if (s.complete()) return;
  engine.schedule(flow_lp(flow), engine.now() + s.rto, kEvTcpTimeout, flow,
                  s.timer_epoch);
}

void NetSim::on_ack(Engine& engine, const Packet& p) {
  TcpSender& s = sender(p.flow);
  if (s.complete() || s.failed) return;  // stale ack

  const std::uint32_t ackno = p.ack;
  if (ackno > s.acked) {
    s.consecutive_timeouts = 0;  // forward progress
    // RTT sample (Karn: only when the measured segment was not
    // retransmitted, which recovery/timeout handling guarantees by
    // clearing rtt_sent_at).
    if (s.rtt_sent_at >= 0 && ackno >= s.rtt_seq) {
      tcp_rtt_update(s, engine.now() - s.rtt_sent_at);
      s.rtt_sent_at = -1;
    }
    if (s.in_recovery) {
      if (ackno >= s.recover) {
        // Full ack: leave fast recovery.
        s.in_recovery = false;
        s.cwnd = s.ssthresh;
        s.dup_acks = 0;
        s.acked = ackno;
      } else {
        // Partial ack (NewReno): retransmit the next hole, stay in
        // recovery, deflate the window by the amount acked.
        const std::uint32_t newly = ackno - s.acked;
        s.acked = ackno;
        s.cwnd = std::max(s.ssthresh,
                          s.cwnd - static_cast<double>(newly) + kMss);
        send_segment(engine, s, p.flow, s.acked, /*count_retransmit=*/true);
      }
    } else {
      s.acked = ackno;
      s.dup_acks = 0;
      if (s.cwnd < s.ssthresh) {
        s.cwnd += kMss;  // slow start
      } else {
        s.cwnd += static_cast<double>(kMss) * kMss / s.cwnd;  // AIMD
      }
    }
    if (s.complete()) record_flow(p.flow, s, engine.now());
    arm_timer(engine, s, p.flow);  // also invalidates the old timer
    send_available(engine, s, p.flow);
    return;
  }

  if (ackno == s.acked && s.acked < s.size && s.flight_size() > 0) {
    ++s.dup_acks;
    if (!s.in_recovery && s.dup_acks == 3) {
      // Fast retransmit + fast recovery.
      s.ssthresh = std::max<double>(s.flight_size() / 2.0, 2.0 * kMss);
      s.cwnd = s.ssthresh + 3.0 * kMss;
      s.in_recovery = true;
      s.recover = s.next_seq;
      s.rtt_sent_at = -1;  // Karn
      send_segment(engine, s, p.flow, s.acked, /*count_retransmit=*/true);
    } else if (s.in_recovery) {
      s.cwnd += kMss;  // window inflation per extra dup ack
      send_available(engine, s, p.flow);
    }
  }
}

void NetSim::on_timeout(Engine& engine, FlowId flow, std::uint64_t epoch) {
  TcpSender& s = sender(flow);
  if (epoch != s.timer_epoch || s.complete() || s.failed) return;  // stale

  if (++s.consecutive_timeouts > opts_.tcp_max_consecutive_timeouts) {
    // The path is (or behaves) partitioned: give up rather than chatter
    // until the simulation horizon.
    s.failed = true;
    ++lp_state_[static_cast<std::size_t>(lp_of(s.src))]
          .counters.flows_failed;
    record_flow(flow, s, engine.now());
    if (on_flow_complete_) {
      on_flow_complete_(engine, *this, flow, s.src, s.dst, s.tag,
                        /*failed=*/true);
    }
    return;
  }

  s.ssthresh = std::max<double>(s.flight_size() / 2.0, 2.0 * kMss);
  s.cwnd = kMss;
  s.dup_acks = 0;
  s.in_recovery = false;
  s.rtt_sent_at = -1;  // Karn
  s.rto = std::min<SimTime>(s.rto * 2, kMaxRto);  // exponential backoff
  // Go-back-N: everything past the cumulative ack is presumed lost.
  // Without the rewind, next_seq keeps the flight size inflated, so after
  // a multi-segment loss the window never opens and the hole refills at
  // one segment per (backed-off) RTO instead of ack-clocked slow start.
  send_segment(engine, s, flow, s.acked, /*count_retransmit=*/true);
  s.next_seq = s.acked + std::min(kMss, s.size - s.acked);
  arm_timer(engine, s, flow);
}

std::vector<FlowRecord> NetSim::flow_records() const {
  MASSF_CHECK(opts_.collect_flow_records);
  std::vector<FlowRecord> all;
  for (const LpState& st : lp_state_) {
    all.insert(all.end(), st.records.begin(), st.records.end());
  }
  const std::vector<FlowRecord> bg = model_->background_flow_records();
  all.insert(all.end(), bg.begin(), bg.end());
  return all;
}

NetSim::Counters NetSim::totals() const {
  Counters total;
  for (const LpState& st : lp_state_) {
    total.forwarded += st.counters.forwarded;
    total.delivered += st.counters.delivered;
    total.acks += st.counters.acks;
    total.dropped_queue += st.counters.dropped_queue;
    total.dropped_no_route += st.counters.dropped_no_route;
    total.dropped_link_down += st.counters.dropped_link_down;
    total.dropped_node_down += st.counters.dropped_node_down;
    total.dropped_loss += st.counters.dropped_loss;
    total.app_timers_dropped += st.counters.app_timers_dropped;
    total.retransmits += st.counters.retransmits;
    total.flows_started += st.counters.flows_started;
    total.flows_completed += st.counters.flows_completed;
    total.flows_failed += st.counters.flows_failed;
  }
  return total;
}

void NetSim::publish_metrics(obs::Registry& registry) const {
  const Counters t = totals();
  registry.counter("net.forwarded").inc(t.forwarded);
  registry.counter("net.delivered").inc(t.delivered);
  registry.counter("net.acks").inc(t.acks);
  registry.counter("net.dropped_queue").inc(t.dropped_queue);
  registry.counter("net.dropped_no_route").inc(t.dropped_no_route);
  registry.counter("net.dropped_link_down").inc(t.dropped_link_down);
  registry.counter("net.dropped_node_down").inc(t.dropped_node_down);
  registry.counter("net.dropped_loss").inc(t.dropped_loss);
  registry.counter("net.app_timers_dropped").inc(t.app_timers_dropped);
  registry.counter("net.retransmits").inc(t.retransmits);
  registry.counter("net.flows_started").inc(t.flows_started);
  registry.counter("net.flows_completed").inc(t.flows_completed);
  registry.counter("net.flows_failed").inc(t.flows_failed);
  model_->publish_metrics(registry);
}

}  // namespace massf
