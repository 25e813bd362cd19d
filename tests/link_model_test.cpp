// LinkModel boundary tests: utilization/byte-accounting edge cases on the
// packet model, the fluid fast path's analytic correctness, flow<->packet
// coupling in both directions, executor-independence of the hybrid model,
// and checkpoint round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ckpt/ckpt.hpp"
#include "net/fluid_link.hpp"
#include "net/netsim.hpp"
#include "routing/forwarding.hpp"
#include "util/error.hpp"

namespace massf {
namespace {

// A 4-router line with `hosts_per_router` hosts on every router:
//   h - r0 --1ms-- r1 --1ms-- r2 --1ms-- r3 - h     (1e8 bps everywhere)
// Link ids: r0r1=0, r1r2=1, r2r3=2, then access links in host order.
Network line_network(int hosts_per_router = 1, double bandwidth = 1e8) {
  Network net;
  for (int i = 0; i < 4; ++i) {
    NetNode r;
    r.kind = NodeKind::kRouter;
    net.nodes.push_back(r);
  }
  net.num_routers = 4;
  const auto link = [&](NodeId a, NodeId b, SimTime lat, double bw) {
    NetLink l;
    l.a = a;
    l.b = b;
    l.latency = lat;
    l.bandwidth_bps = bw;
    net.links.push_back(l);
  };
  link(0, 1, milliseconds(1), bandwidth);
  link(1, 2, milliseconds(1), bandwidth);
  link(2, 3, milliseconds(1), bandwidth);
  for (int r = 0; r < 4; ++r) {
    for (int h = 0; h < hosts_per_router; ++h) {
      NetNode host;
      host.kind = NodeKind::kHost;
      host.attach_router = r;
      const NodeId id = static_cast<NodeId>(net.nodes.size());
      net.nodes.push_back(host);
      link(r, id, microseconds(10), bandwidth);
    }
  }
  net.build_adjacency();
  return net;
}

struct Fixture {
  Fixture(const std::vector<LpId>& router_lp, const NetSimOptions& no,
          int hosts_per_router = 1, SimTime end = seconds(30))
      : net(line_network(hosts_per_router)),
        fp(ForwardingPlane::build_flat(net, std::vector<NodeId>{0, 1, 2, 3})) {
    EngineOptions eo;
    eo.lookahead = milliseconds(1);
    eo.end_time = end;
    eo.cost_per_event_s = 1e-6;
    engine = std::make_unique<Engine>(eo);
    sim = std::make_unique<NetSim>(net, fp, router_lp, *engine, no);
  }

  NodeId host(int idx) const { return static_cast<NodeId>(4 + idx); }

  Network net;
  ForwardingPlane fp;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetSim> sim;
};

NetSimOptions packet_opts() {
  NetSimOptions no;
  no.collect_link_stats = true;
  no.collect_flow_records = true;
  return no;
}

NetSimOptions hybrid_opts() {
  NetSimOptions no = packet_opts();
  no.link_model.kind = LinkModelKind::kHybrid;
  return no;
}

// ---- link_utilization / link_bytes edge cases -------------------------------

TEST(LinkModelPacket, UtilizationZeroDurationWindowThrows) {
  Fixture f({0, 0, 0, 0}, packet_opts());
  EXPECT_THROW(f.sim->link_model().link_utilization(0, 0, 0), EngineError);
  EXPECT_THROW(f.sim->link_model().link_utilization(0, 0, -seconds(1)),
               EngineError);
}

TEST(LinkModelPacket, UtilizationWithoutStatsThrows) {
  NetSimOptions no;  // collect_link_stats off
  Fixture f({0, 0, 0, 0}, no);
  EXPECT_THROW(f.sim->link_model().link_utilization(0, 0, seconds(1)),
               EngineError);
}

TEST(LinkModelPacket, UtilizationBadDirectionThrows) {
  Fixture f({0, 0, 0, 0}, packet_opts());
  EXPECT_THROW(f.sim->link_model().link_utilization(0, 2, seconds(1)),
               EngineError);
  EXPECT_THROW(f.sim->link_model().link_utilization(0, -1, seconds(1)),
               EngineError);
}

TEST(LinkModelPacket, DownLinkAccruesNoBytes) {
  Fixture f({0, 0, 0, 0}, packet_opts());
  // Source's access link (id 3) down before any traffic.
  f.sim->link_model().schedule_link_state(*f.engine, 3, microseconds(1),
                                          false);
  f.sim->start_flow(*f.engine, milliseconds(5), f.host(0), f.host(3), 50000,
                    0);
  f.engine->run();
  EXPECT_GT(f.sim->totals().dropped_link_down, 0u);
  const auto& bytes = f.sim->link_model().link_bytes();
  EXPECT_EQ(bytes[3 * 2 + 0], 0u);
  EXPECT_EQ(bytes[3 * 2 + 1], 0u);
  EXPECT_EQ(f.sim->link_model().link_utilization(3, 0, seconds(1)), 0.0);
  EXPECT_EQ(f.sim->link_model().link_utilization(3, 1, seconds(1)), 0.0);
}

TEST(LinkModelPacket, LossDropsConsumeNoBandwidth) {
  Fixture f({0, 0, 0, 0}, packet_opts());
  // Near-total loss on the source's access link (the loss rate must stay
  // < 1.0): dropped packets must not accrue carried bytes.
  f.sim->link_model().schedule_loss_state(*f.engine, 3, microseconds(1),
                                          0.999999);
  f.sim->start_flow(*f.engine, milliseconds(5), f.host(0), f.host(3), 50000,
                    0);
  f.engine->run();
  EXPECT_GT(f.sim->totals().dropped_loss, 0u);
  const auto& bytes = f.sim->link_model().link_bytes();
  EXPECT_EQ(bytes[3 * 2 + 0] + bytes[3 * 2 + 1], 0u);
}

// ---- fluid fast path --------------------------------------------------------

// One 1 MB background flow on an otherwise idle path: the max-min share is
// the full 1e8 bps, so the analytic duration is 8e6 / 1e8 = 80 ms.
TEST(LinkModelFluid, SingleFlowMatchesAnalyticCompletionTime) {
  Fixture f({0, 0, 0, 0}, hybrid_opts());
  ASSERT_TRUE(f.sim->link_model().supports_background_flows());
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, 0, f.host(0), f.host(3),
                                           1000000, 7));
  f.engine->run();
  const auto recs = f.sim->flow_records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].flow & FluidLinkModel::kFluidFlowBit);
  EXPECT_EQ(recs[0].bytes, 1000000u);
  EXPECT_EQ(recs[0].tag, 7u);
  EXPECT_FALSE(recs[0].failed);
  EXPECT_NEAR(recs[0].duration_s(), 0.08, 0.01);
}

// A per-flow rate cap (the TCP window/RTT ceiling) bounds an otherwise
// unconstrained flow: 1 MB at a 1e7 bps cap on a 1e8 bps line takes ~0.8 s.
TEST(LinkModelFluid, RateCapBoundsFlowRate) {
  NetSimOptions no = hybrid_opts();
  no.link_model.fluid_flow_rate_cap_bps = 1e7;
  Fixture f({0, 0, 0, 0}, no);
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, 0, f.host(0), f.host(3),
                                           1000000, 7));
  f.engine->run();
  const auto recs = f.sim->flow_records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_FALSE(recs[0].failed);
  EXPECT_NEAR(recs[0].duration_s(), 0.8, 0.05);
}

// Two flows sharing the router line get the max-min fair half each.
TEST(LinkModelFluid, TwoFlowsShareFairly) {
  Fixture f({0, 0, 0, 0}, hybrid_opts(), /*hosts_per_router=*/2);
  // hosts: r0 -> {4,5}, r1 -> {6,7}, r2 -> {8,9}, r3 -> {10,11}
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, 0, 4, 10, 1000000, 0));
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, 0, 5, 11, 1000000, 1));
  f.engine->run();
  auto recs = f.sim->flow_records();
  ASSERT_EQ(recs.size(), 2u);
  for (const FlowRecord& r : recs) {
    EXPECT_FALSE(r.failed);
    EXPECT_NEAR(r.duration_s(), 0.16, 0.02);
  }
}

// Halving the capacity via a loss burst halves the max-min rate.
TEST(LinkModelFluid, LossScalesRate) {
  Fixture f({0, 0, 0, 0}, hybrid_opts());
  f.sim->link_model().schedule_loss_state(*f.engine, 1, microseconds(1), 0.5);
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, milliseconds(5),
                                           f.host(0), f.host(3), 1000000, 0));
  f.engine->run();
  const auto recs = f.sim->flow_records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_FALSE(recs[0].failed);
  EXPECT_NEAR(recs[0].duration_s(), 0.16, 0.02);
}

// A downed transit link with no alternate path stalls the flow at zero
// rate until the stall timeout fails it — the analytic mirror of TCP's
// give-up-after-consecutive-timeouts.
TEST(LinkModelFluid, DownLinkStallFailsFlow) {
  NetSimOptions no = hybrid_opts();
  no.link_model.fluid_stall_timeout_s = 0.5;
  Fixture f({0, 0, 0, 0}, no);
  f.sim->link_model().schedule_link_state(*f.engine, 1, microseconds(1),
                                          false);
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, milliseconds(5),
                                           f.host(0), f.host(3), 1000000, 0));
  f.engine->run();
  const auto recs = f.sim->flow_records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].failed);
  EXPECT_GE(to_seconds(recs[0].finished_at), 0.5);
  const auto* fluid =
      dynamic_cast<const FluidLinkModel*>(&f.sim->link_model());
  ASSERT_NE(fluid, nullptr);
  EXPECT_EQ(fluid->bg_counters().failed, 1u);
  EXPECT_EQ(fluid->active_background_flows(), 0u);
}

// ---- flow <-> packet coupling ----------------------------------------------

// packet -> fluid: measured packet throughput on the shared line shrinks
// the capacity the water-fill hands to the background flow.
TEST(LinkModelCoupling, PacketTrafficSlowsFluidFlow) {
  const auto run_fluid = [](bool with_packet_traffic) {
    Fixture f({0, 0, 0, 0}, hybrid_opts(), /*hosts_per_router=*/2);
    if (with_packet_traffic) {
      // Packet TCP churn across the same line, started just before the
      // fluid flow so the first recompute already sees measured bytes.
      for (int i = 0; i < 4; ++i) {
        f.sim->start_flow(*f.engine, milliseconds(1 + i), 4, 10,
                          2000000, 100 + i);
      }
    }
    f.sim->start_background_flow(*f.engine, milliseconds(40), 5, 11, 2000000,
                                 0);
    f.engine->run();
    for (const FlowRecord& r : f.sim->flow_records()) {
      if (r.flow & FluidLinkModel::kFluidFlowBit) return r.duration_s();
    }
    return -1.0;
  };
  const double alone = run_fluid(false);
  const double contended = run_fluid(true);
  ASSERT_GT(alone, 0.0);
  ASSERT_GT(contended, 0.0);
  EXPECT_NEAR(alone, 0.16, 0.02);  // 2 MB at the full 1e8 bps
  EXPECT_GT(contended, alone + 0.005);
}

// fluid -> packet: a saturating background flow shrinks the bandwidth the
// packet path sees, but never below the configured floor — the packet
// flow still completes, just slower.
TEST(LinkModelCoupling, FluidReservationSlowsButNeverStarvesPackets) {
  const auto run_packet = [](bool with_fluid) {
    Fixture f({0, 0, 0, 0}, hybrid_opts(), /*hosts_per_router=*/2);
    if (with_fluid) {
      // Long-lived saturating flow admitted well before the packet flow.
      f.sim->start_background_flow(*f.engine, 0, 4, 10, 400000000, 0);
    }
    f.sim->start_flow(*f.engine, milliseconds(100), 5, 11, 1000000, 1);
    f.engine->run();
    for (const FlowRecord& r : f.sim->flow_records()) {
      if ((r.flow & FluidLinkModel::kFluidFlowBit) == 0) {
        return r.failed ? -1.0 : r.duration_s();
      }
    }
    return -1.0;
  };
  const double clear = run_packet(false);
  const double contended = run_packet(true);
  ASSERT_GT(clear, 0.0);
  ASSERT_GT(contended, 0.0) << "packet flow starved by fluid reservation";
  EXPECT_GT(contended, clear);
}

// Fluid bytes show up in the link accounting at boundary granularity.
TEST(LinkModelFluid, FluidBytesAccrueIntoLinkStats) {
  Fixture f({0, 0, 0, 0}, hybrid_opts());
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, 0, f.host(0), f.host(3),
                                           1000000, 0));
  f.engine->run();
  const auto& bytes = f.sim->link_model().link_bytes();
  // Every slot on the forward path carried the megabyte (within rounding).
  for (const std::uint64_t slot_bytes :
       {bytes[0 * 2 + 0], bytes[1 * 2 + 0], bytes[2 * 2 + 0]}) {
    EXPECT_NEAR(static_cast<double>(slot_bytes), 1e6, 1e4);
  }
}

// ---- determinism across executors ------------------------------------------

struct RunResult {
  std::vector<FlowRecord> records;
  NetSim::Counters totals;
};

RunResult run_mixed(std::int32_t threads) {
  Fixture f({0, 0, 1, 1}, hybrid_opts(), /*hosts_per_router=*/2,
            seconds(10));
  // Mixed fidelity crossing the LP boundary both ways: fluid background
  // flows plus packet TCP, so the conversion state at shared links is
  // exercised under both executors.
  f.sim->start_background_flow(*f.engine, 0, 4, 10, 3000000, 0);
  f.sim->start_background_flow(*f.engine, 0, 5, 11, 1000000, 1);
  f.sim->start_background_flow(*f.engine, milliseconds(30), 10, 4, 2000000,
                               2);
  f.sim->start_flow(*f.engine, milliseconds(1), 6, 8, 500000, 100);
  f.sim->start_flow(*f.engine, milliseconds(2), 9, 7, 500000, 101);
  if (threads > 0) {
    f.engine->run_threaded(threads);
  } else {
    f.engine->run();
  }
  RunResult r;
  r.records = f.sim->flow_records();
  std::sort(r.records.begin(), r.records.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.flow < b.flow;
            });
  r.totals = f.sim->totals();
  return r;
}

TEST(LinkModelDeterminism, HybridSequentialEqualsThreaded) {
  const RunResult seq = run_mixed(0);
  const RunResult thr2 = run_mixed(2);
  ASSERT_EQ(seq.records.size(), thr2.records.size());
  ASSERT_EQ(seq.records.size(), 5u);
  for (std::size_t i = 0; i < seq.records.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(seq.records[i].flow, thr2.records[i].flow);
    EXPECT_EQ(seq.records[i].src, thr2.records[i].src);
    EXPECT_EQ(seq.records[i].dst, thr2.records[i].dst);
    EXPECT_EQ(seq.records[i].bytes, thr2.records[i].bytes);
    EXPECT_EQ(seq.records[i].started_at, thr2.records[i].started_at);
    EXPECT_EQ(seq.records[i].finished_at, thr2.records[i].finished_at);
    EXPECT_EQ(seq.records[i].failed, thr2.records[i].failed);
  }
  EXPECT_EQ(seq.totals.forwarded, thr2.totals.forwarded);
  EXPECT_EQ(seq.totals.delivered, thr2.totals.delivered);
  EXPECT_EQ(seq.totals.flows_completed, thr2.totals.flows_completed);
}

// ---- checkpoint participation ----------------------------------------------

// Mid-run hybrid state (active flows, published reservations, measured
// packet rates) round-trips: save -> load into a fresh stack -> save again
// must be byte-identical.
TEST(LinkModelCkpt, HybridStateRoundTripsByteIdentical) {
  NetSimOptions no = hybrid_opts();
  const auto build = [&no]() {
    return std::make_unique<Fixture>(std::vector<LpId>{0, 0, 0, 0}, no, 2,
                                     /*end=*/milliseconds(60));
  };
  auto a = build();
  // Still in flight at the 60 ms horizon: 8 MB at <= 1e8 bps.
  a->sim->start_background_flow(*a->engine, 0, 4, 10, 8000000, 0);
  a->sim->start_background_flow(*a->engine, 0, 5, 11, 8000000, 1);
  a->sim->start_flow(*a->engine, milliseconds(1), 6, 8, 2000000, 100);
  a->engine->run();
  const auto* fluid_a =
      dynamic_cast<const FluidLinkModel*>(&a->sim->link_model());
  ASSERT_NE(fluid_a, nullptr);
  ASSERT_GT(fluid_a->active_background_flows(), 0u) << "horizon too late";

  ckpt::Writer wa;
  a->sim->save(wa);

  auto b = build();
  ckpt::Reader r(wa.buffer().data(), wa.size());
  ASSERT_TRUE(b->sim->load(r));
  ckpt::Writer wb;
  b->sim->save(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());

  const auto* fluid_b =
      dynamic_cast<const FluidLinkModel*>(&b->sim->link_model());
  ASSERT_NE(fluid_b, nullptr);
  EXPECT_EQ(fluid_a->active_background_flows(),
            fluid_b->active_background_flows());
  EXPECT_EQ(fluid_a->bg_counters().started, fluid_b->bg_counters().started);
}

// A packet-model checkpoint must refuse to load into a hybrid stack (and
// vice versa): the kind marker guards the section shape.
TEST(LinkModelCkpt, KindMarkerRejectsCrossModelRestore) {
  Fixture packet({0, 0, 0, 0}, packet_opts());
  ckpt::Writer w;
  packet.sim->save(w);

  Fixture hybrid({0, 0, 0, 0}, hybrid_opts());
  ckpt::Reader r(w.buffer().data(), w.size());
  EXPECT_FALSE(hybrid.sim->load(r));
}

}  // namespace
}  // namespace massf
