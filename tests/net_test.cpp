#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>

#include "net/netsim.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "routing/forwarding.hpp"

namespace massf {
namespace {

// h4 - r0 --L-- r1 --L-- r2 --L-- r3 - h5   (L = inter-router latency)
Network line_network(SimTime router_latency = milliseconds(1),
                     double bandwidth = 1e8) {
  Network net;
  for (int i = 0; i < 4; ++i) {
    NetNode r;
    r.kind = NodeKind::kRouter;
    net.nodes.push_back(r);
  }
  net.num_routers = 4;
  for (int i = 0; i < 2; ++i) {
    NetNode h;
    h.kind = NodeKind::kHost;
    h.attach_router = i == 0 ? 0 : 3;
    net.nodes.push_back(h);
  }
  const auto link = [&](NodeId a, NodeId b, SimTime lat, double bw) {
    NetLink l;
    l.a = a;
    l.b = b;
    l.latency = lat;
    l.bandwidth_bps = bw;
    net.links.push_back(l);
  };
  link(0, 1, router_latency, bandwidth);
  link(1, 2, router_latency, bandwidth);
  link(2, 3, router_latency, bandwidth);
  link(0, 4, microseconds(10), bandwidth);
  link(3, 5, microseconds(10), bandwidth);
  net.build_adjacency();
  return net;
}

struct Fixture {
  explicit Fixture(const std::vector<LpId>& router_lp,
                   SimTime lookahead = milliseconds(1),
                   double queue_bytes = 256 * 1024,
                   SimTime router_latency = milliseconds(1),
                   double bandwidth = 1e8, SimTime end = seconds(30))
      : net(line_network(router_latency, bandwidth)),
        fp(ForwardingPlane::build_flat(net, std::vector<NodeId>{0, 3})) {
    EngineOptions eo;
    eo.lookahead = lookahead;
    eo.end_time = end;
    eo.cost_per_event_s = 1e-6;
    engine = std::make_unique<Engine>(eo);
    NetSimOptions no;
    no.queue_capacity_bytes = queue_bytes;
    no.collect_node_profile = true;
    sim = std::make_unique<NetSim>(net, fp, router_lp, *engine, no);
  }

  Network net;
  ForwardingPlane fp;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetSim> sim;
};

TEST(Packet, EncodeDecodeRoundTrip) {
  Packet p;
  p.src = 123456;
  p.dst = 654321;
  p.flow = 0xABCDEF0123456789ULL;
  p.seq = 0xDEADBEEF;
  p.len = 0x123456;  // 24-bit max
  p.flags = kFlagAck | kFlagFin;
  p.arrive = 42;
  p.ack = 0xCAFEBABE;
  Event ev;
  p.encode(ev);
  const Packet q = Packet::decode(ev);
  EXPECT_EQ(q.src, p.src);
  EXPECT_EQ(q.dst, p.dst);
  EXPECT_EQ(q.flow, p.flow);
  EXPECT_EQ(q.seq, p.seq);
  EXPECT_EQ(q.len, p.len);
  EXPECT_EQ(q.flags, p.flags);
  EXPECT_EQ(q.arrive, p.arrive);
  EXPECT_EQ(q.ack, p.ack);
}

TEST(Packet, WireBytesIncludesHeader) {
  Packet p;
  p.len = 1000;
  EXPECT_EQ(p.wire_bytes(), 1000 + kHeaderBytes);
}

TEST(TcpReceiver, InOrderAdvances) {
  TcpReceiver r;
  EXPECT_TRUE(r.on_data(0, 100));
  EXPECT_EQ(r.expected, 100u);
  EXPECT_TRUE(r.on_data(100, 50));
  EXPECT_EQ(r.expected, 150u);
}

TEST(TcpReceiver, OutOfOrderBufferedThenAbsorbed) {
  TcpReceiver r;
  EXPECT_FALSE(r.on_data(100, 100));  // hole at [0,100)
  EXPECT_EQ(r.expected, 0u);
  EXPECT_FALSE(r.on_data(300, 100));
  EXPECT_TRUE(r.on_data(0, 100));  // fills first hole, absorbs [100,200)
  EXPECT_EQ(r.expected, 200u);
  EXPECT_TRUE(r.on_data(200, 100));  // absorbs [300,400)
  EXPECT_EQ(r.expected, 400u);
  EXPECT_TRUE(r.ooo.empty());
}

TEST(TcpReceiver, DuplicatesIgnored) {
  TcpReceiver r;
  r.on_data(0, 100);
  EXPECT_FALSE(r.on_data(0, 100));
  EXPECT_FALSE(r.on_data(50, 50));
  EXPECT_EQ(r.expected, 100u);
}

TEST(TcpReceiver, OverlappingOooMerged) {
  TcpReceiver r;
  r.on_data(200, 100);
  r.on_data(250, 100);  // overlaps previous
  r.on_data(100, 100);  // adjacent below
  EXPECT_EQ(r.ooo.size(), 1u);
  r.on_data(0, 100);
  EXPECT_EQ(r.expected, 350u);
}

TEST(TcpReceiver, CompletionNeedsFin) {
  TcpReceiver r;
  r.on_data(0, 100);
  EXPECT_FALSE(r.all_received());
  r.fin_seen = true;
  r.fin_seq = 100;
  EXPECT_TRUE(r.all_received());
}

TEST(TcpRtt, EwmaAndClamp) {
  TcpSender s;
  tcp_rtt_update(s, milliseconds(200));
  EXPECT_EQ(s.srtt, milliseconds(200));
  EXPECT_EQ(s.rto, milliseconds(400));
  tcp_rtt_update(s, milliseconds(200));
  EXPECT_EQ(s.srtt, milliseconds(200));
  // Tiny sample clamps RTO at the floor.
  TcpSender fast;
  tcp_rtt_update(fast, microseconds(100));
  EXPECT_EQ(fast.rto, kMinRto);
  // Huge samples clamp at the ceiling.
  TcpSender slow;
  tcp_rtt_update(slow, seconds(10));
  EXPECT_EQ(slow.rto, kMaxRto);
}

TEST(NetSim, SingleFlowCompletes) {
  Fixture f({0, 0, 0, 0});
  std::uint32_t completions = 0;
  std::uint32_t observed_tag = 0;
  f.sim->set_flow_complete([&](Engine&, NetSim&, FlowId, NodeId src,
                               NodeId dst, std::uint32_t tag, bool) {
    ++completions;
    observed_tag = tag;
    EXPECT_EQ(src, 4);
    EXPECT_EQ(dst, 5);
  });
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 100000, 777);
  f.engine->run();
  EXPECT_EQ(completions, 1u);
  EXPECT_EQ(observed_tag, 777u);
  const auto c = f.sim->totals();
  EXPECT_EQ(c.flows_started, 1u);
  EXPECT_EQ(c.flows_completed, 1u);
  EXPECT_EQ(c.dropped_queue, 0u);
  EXPECT_EQ(c.retransmits, 0u);
  // ~100000/1460 = 69 data segments delivered, each generating an ack.
  EXPECT_GE(c.delivered, 69u);
  EXPECT_GE(c.acks, 69u);
}

TEST(NetSim, LossyLinkRecoversViaRetransmission) {
  // 4 KB of queue: bursts overflow, TCP must retransmit but still finish.
  Fixture f({0, 0, 0, 0}, milliseconds(1), 4 * 1024);
  std::uint32_t completions = 0;
  f.sim->set_flow_complete(
      [&](Engine&, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
      });
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 500000, 1);
  f.engine->run();
  const auto c = f.sim->totals();
  EXPECT_EQ(completions, 1u) << "flow failed to complete under loss";
  EXPECT_GT(c.dropped_queue, 0u);
  EXPECT_GT(c.retransmits, 0u);
}

// A one-segment flow's data packet crosses h4 - r0 - r1 - r2 - r3 - h5 store
// and forward: it arrives after the path's propagation latency plus one
// serialization time on each of the five links.
TEST(NetSim, OneSegmentFlowTakesPathLatencyPlusSerialization) {
  Fixture f({0, 0, 0, 0});
  SimTime completed_at = -1;
  f.sim->set_flow_complete([&](Engine& e, NetSim&, FlowId, NodeId src,
                               NodeId dst, std::uint32_t tag, bool failed) {
    EXPECT_FALSE(failed);
    EXPECT_EQ(src, 4);
    EXPECT_EQ(dst, 5);
    EXPECT_EQ(tag, 55u);
    completed_at = e.now();
  });
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 400, 55);
  f.engine->run();
  // 400 payload + 40 header bytes at 1e8 bps.
  const SimTime serialization = nanoseconds(35'200);
  EXPECT_EQ(completed_at, milliseconds(1) + 3 * milliseconds(1) +
                              2 * microseconds(10) + 5 * serialization);
  EXPECT_EQ(f.sim->totals().flows_completed, 1u);
}

TEST(NetSim, AppTimerFires) {
  Fixture f({0, 0, 0, 0});
  SimTime fired_at = -1;
  f.sim->set_app_timer([&](Engine& e, NetSim&, NodeId host, std::uint64_t b,
                           std::uint64_t c) {
    fired_at = e.now();
    EXPECT_EQ(host, 4);
    EXPECT_EQ(b, 11u);
    EXPECT_EQ(c, 22u);
  });
  f.sim->schedule_app_timer(*f.engine, 4, milliseconds(7), 11, 22);
  f.engine->run();
  EXPECT_EQ(fired_at, milliseconds(7));
}

TEST(NetSim, CrossLpFlowRespectsLookahead) {
  // Routers 0,1 on LP0; 2,3 on LP1; the 1-2 link (1 ms) crosses.
  Fixture f({0, 0, 1, 1});
  std::uint32_t completions = 0;
  f.sim->set_flow_complete(
      [&](Engine&, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
      });
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 50000, 1);
  const RunStats stats = f.engine->run();
  EXPECT_EQ(completions, 1u);
  EXPECT_EQ(stats.events_per_lp.size(), 2u);
  EXPECT_GT(stats.events_per_lp[0], 0u);
  EXPECT_GT(stats.events_per_lp[1], 0u);
}

TEST(NetSim, ThreadedMatchesSequential) {
  const auto run = [](bool threaded) {
    Fixture f({0, 0, 1, 1});
    std::uint64_t completions = 0;
    f.sim->set_flow_complete(
        [&](Engine&, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
          ++completions;
        });
    f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 200000, 1);
    f.sim->start_flow(*f.engine, milliseconds(2), 5, 4, 100000, 2);
    const RunStats stats =
        threaded ? f.engine->run_threaded(2) : f.engine->run();
    const auto c = f.sim->totals();
    return std::vector<std::uint64_t>{stats.total_events,
                                      stats.events_per_lp[0],
                                      stats.events_per_lp[1],
                                      stats.num_windows,
                                      c.forwarded,
                                      c.delivered,
                                      c.acks,
                                      completions};
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(NetSim, NodeProfileCollected) {
  Fixture f({0, 0, 0, 0});
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 10000, 1);
  f.engine->run();
  const auto& profile = f.sim->node_profile();
  ASSERT_EQ(profile.size(), f.net.nodes.size());
  // Transit routers saw arrivals; both hosts saw deliveries.
  EXPECT_GT(profile[1], 0u);
  EXPECT_GT(profile[2], 0u);
  EXPECT_GT(profile[4], 0u);
  EXPECT_GT(profile[5], 0u);
}

TEST(NetSim, BidirectionalFlowsShareLinks) {
  Fixture f({0, 0, 0, 0});
  std::uint32_t completions = 0;
  f.sim->set_flow_complete(
      [&](Engine&, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
      });
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 300000, 1);
  f.sim->start_flow(*f.engine, milliseconds(1), 5, 4, 300000, 2);
  f.engine->run();
  EXPECT_EQ(completions, 2u);
}

TEST(NetSim, ManyConcurrentFlowsAllComplete) {
  Fixture f({0, 0, 1, 1});
  std::uint32_t completions = 0;
  f.sim->set_flow_complete(
      [&](Engine&, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
      });
  for (int i = 0; i < 20; ++i) {
    f.sim->start_flow(*f.engine, milliseconds(1 + i), i % 2 ? 4 : 5,
                      i % 2 ? 5 : 4, 20000 + 1000 * i,
                      static_cast<std::uint32_t>(i));
  }
  f.engine->run();
  EXPECT_EQ(completions, 20u);
}

// ---- Failure injection ----------------------------------------------------

TEST(NetSim, LinkFlapFlowStillCompletes) {
  Fixture f({0, 0, 0, 0}, milliseconds(1), 256.0 * 1024, milliseconds(1),
            1e8, seconds(120));
  std::uint32_t completions = 0;
  SimTime completed_at = -1;
  f.sim->set_flow_complete(
      [&](Engine& e, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
        completed_at = e.now();
      });
  // Middle link (1-2) goes down during the transfer, back up 3 s later.
  f.sim->link_model().schedule_link_state(*f.engine, 1, milliseconds(20), false);
  f.sim->link_model().schedule_link_state(*f.engine, 1, seconds(3), true);
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 500000, 1);
  f.engine->run();
  const auto c = f.sim->totals();
  EXPECT_EQ(completions, 1u);
  EXPECT_GT(c.dropped_link_down, 0u);
  EXPECT_GT(c.retransmits, 0u);
  EXPECT_EQ(c.flows_failed, 0u);
  EXPECT_GT(completed_at, seconds(3));  // had to wait out the outage
}

TEST(NetSim, PermanentOutageAbandonsFlow) {
  Fixture f({0, 0, 0, 0}, milliseconds(1), 256.0 * 1024, milliseconds(1),
            1e8, seconds(300));
  std::uint32_t completions = 0;
  std::uint32_t failures = 0;
  f.sim->set_flow_complete(
      [&](Engine&, NetSim&, FlowId, NodeId, NodeId, std::uint32_t,
          bool failed) {
        if (failed) {
          ++failures;
        } else {
          ++completions;
        }
      });
  f.sim->link_model().schedule_link_state(*f.engine, 1, milliseconds(10), false);
  f.sim->start_flow(*f.engine, milliseconds(20), 4, 5, 100000, 1);
  const RunStats stats = f.engine->run();
  const auto c = f.sim->totals();
  // Abandonment surfaces through the completion callback with
  // failed=true, on the sender's LP.
  EXPECT_EQ(completions, 0u);
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(c.flows_failed, 1u);
  // The give-up bound also bounds the event count: no retransmission
  // chatter to the horizon.
  EXPECT_LT(stats.total_events, 500u);
  // Exponential backoff ran its course (bounded retransmissions).
  EXPECT_LE(c.retransmits, 16u);
}

// ---- Parameterized TCP property sweep ----------------------------------
// Across bandwidths, buffer sizes, link latencies, and transfer sizes:
// every flow completes exactly once, and the completion time respects the
// physical bounds (serialization + propagation below, bandwidth above).

struct TcpCase {
  double bandwidth_bps;
  double queue_bytes;
  SimTime latency;
  std::uint32_t size;
};

// Prints a case from its fields, bw1e9_q256k_lat100us_100000B, which is
// also its name in test listings (PrintToStringParamName below), so no
// padding byte of TcpCase reaches a ctest name.
void PrintTo(const TcpCase& c, std::ostream* os) {
  double mantissa = c.bandwidth_bps;
  int exponent = 0;
  for (; mantissa >= 10; mantissa /= 10) ++exponent;
  const auto queue = static_cast<std::uint64_t>(c.queue_bytes);
  *os << "bw" << mantissa << "e" << exponent << "_q";
  if (queue % 1000 == 0) {
    *os << queue / 1000 << "k";
  } else {
    *os << queue;
  }
  *os << "_lat";
  if (c.latency % milliseconds(1) == 0) {
    *os << c.latency / milliseconds(1) << "ms";
  } else {
    *os << c.latency / microseconds(1) << "us";
  }
  *os << "_" << c.size << "B";
}

class TcpSweep : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpSweep, ReliableDeliveryWithinPhysicalBounds) {
  const TcpCase c = GetParam();
  Fixture f({0, 0, 0, 0}, std::min<SimTime>(c.latency, milliseconds(1)),
            c.queue_bytes, c.latency, c.bandwidth_bps, seconds(600));
  std::uint32_t completions = 0;
  SimTime completed_at = -1;
  f.sim->set_flow_complete(
      [&](Engine& e, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
        completed_at = e.now();
      });
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, c.size, 1);
  f.engine->run();

  ASSERT_EQ(completions, 1u)
      << "bw=" << c.bandwidth_bps << " q=" << c.queue_bytes
      << " size=" << c.size;
  // Lower bound: one-way propagation (3 router hops + 2 access links) plus
  // serializing the whole flow once at the bottleneck.
  const double propagation = 3 * to_seconds(c.latency) + 2 * 10e-6;
  const double serialization =
      static_cast<double>(c.size) * 8 / c.bandwidth_bps;
  EXPECT_GE(to_seconds(completed_at - milliseconds(1)),
            propagation + serialization * 0.9);
  // Sanity upper bound: loss and slow start cannot inflate the transfer
  // beyond a generous multiple of the ideal time plus RTO allowance.
  EXPECT_LT(to_seconds(completed_at), 500.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TcpSweep,
    ::testing::Values(
        // Clean fast path.
        TcpCase{1e9, 256e3, microseconds(100), 100000},
        // Slow link, big transfer: bandwidth-bound.
        TcpCase{1e6, 64e3, milliseconds(1), 200000},
        // Tiny buffers: loss recovery.
        TcpCase{1e8, 3000, milliseconds(1), 300000},
        TcpCase{1e7, 3000, milliseconds(5), 150000},
        // Long fat pipe.
        TcpCase{1e9, 512e3, milliseconds(20), 2000000},
        // Single-segment flow.
        TcpCase{1e8, 64e3, milliseconds(1), 400},
        // Exactly one MSS and one-plus-a-byte.
        TcpCase{1e8, 64e3, milliseconds(1), 1460},
        TcpCase{1e8, 64e3, milliseconds(1), 1461},
        // High-latency lossy path.
        TcpCase{5e6, 8000, milliseconds(25), 100000}),
    ::testing::PrintToStringParamName());

TEST(NetSim, ThroughputBoundedByBandwidth) {
  // 10 Mbps bottleneck, 1 MB transfer: needs >= 0.8 s of virtual time.
  Fixture f({0, 0, 0, 0}, milliseconds(1), 256.0 * 1024, milliseconds(1),
            1e7, seconds(60));
  SimTime completed_at = -1;
  f.sim->set_flow_complete(
      [&](Engine& e, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        completed_at = e.now();
      });
  f.sim->start_flow(*f.engine, milliseconds(1), 4, 5, 1000000, 1);
  f.engine->run();
  ASSERT_GT(completed_at, 0);
  EXPECT_GT(to_seconds(completed_at), 0.8);
}

}  // namespace
}  // namespace massf
