// LinkModel boundary tests: drop-tail queueing and drops on the packet
// model, the fluid fast path's analytic correctness and its
// water-fill against a full-slot reference, flow<->packet coupling in both
// directions, and executor-independence of the hybrid model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "fault/injector.hpp"
#include "net/fluid_link.hpp"
#include "net/netsim.hpp"
#include "routing/forwarding.hpp"
#include "topology/brite.hpp"
#include "util/rng.hpp"

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
  no.collect_flow_records = true;
  return no;
}

NetSimOptions hybrid_opts() {
  NetSimOptions no = packet_opts();
  no.link_model.kind = LinkModelKind::kHybrid;
  return no;
}

// ---- packet path: drop-tail queueing, drops --------------------------------

// A full-size data packet: 1500 wire bytes, 120 us of service at 1e8 bps.
Packet full_packet() {
  Packet p;
  p.len = kMss;
  return p;
}
constexpr SimTime kFullPacketService = microseconds(120);

// Packets offered back to back at t = 0 queue behind each other, each
// arriving one service time after the previous; once the backlog ahead of
// a packet exceeds the buffer, it is dropped. The buffer (10,000 B) is not
// a multiple of the wire size, so no backlog sits on the bound.
TEST(LinkModelPacket, DropTailQueuesThenDrops) {
  NetSimOptions no = packet_opts();
  no.queue_capacity_bytes = 10000;
  Fixture f({0, 0, 0, 0}, no);
  LinkModel& m = f.sim->link_model();
  const Packet p = full_packet();
  // Backlogs 0, 1500, ..., 9000 B fit; 10,500 B does not.
  for (int k = 0; k < 7; ++k) {
    const TransmitResult r = m.transmit(*f.engine, 0, 0, p);
    ASSERT_EQ(r.status, TransmitResult::kSent) << k;
    EXPECT_EQ(r.peer, 1);
    EXPECT_EQ(r.arrive, (k + 1) * kFullPacketService + milliseconds(1)) << k;
  }
  EXPECT_EQ(m.transmit(*f.engine, 0, 0, p).status, TransmitResult::kQueueFull);
  // The other direction has its own queue.
  EXPECT_EQ(m.transmit(*f.engine, 1, 0, p).arrive,
            kFullPacketService + milliseconds(1));
}

// Packets offered to a down slot are dropped without occupying it: the
// first packet after it comes back up leaves at once.
TEST(LinkModelPacket, DownLinkAccruesNoBytes) {
  Fixture f({0, 0, 0, 0}, packet_opts());
  LinkModel& m = f.sim->link_model();
  const Packet p = full_packet();
  // Access link 3 joins r0 (end a) and host 4 (end b); slot 3*2+1 is the
  // host's transmit direction.
  m.on_link_state(3 * 2 + 1, false);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(m.transmit(*f.engine, f.host(0), 3, p).status,
              TransmitResult::kLinkDown);
  }
  m.on_link_state(3 * 2 + 1, true);
  const TransmitResult r = m.transmit(*f.engine, f.host(0), 3, p);
  ASSERT_EQ(r.status, TransmitResult::kSent);
  EXPECT_EQ(r.peer, 0);
  EXPECT_EQ(r.arrive, kFullPacketService + microseconds(10));
}

// Likewise for loss-burst drops (a corrupted frame is dropped at ingress).
// The loss rate must stay < 1.0; at 0.999999 every one of these packets
// is dropped.
TEST(LinkModelPacket, LossDropsConsumeNoBandwidth) {
  Fixture f({0, 0, 0, 0}, packet_opts());
  LinkModel& m = f.sim->link_model();
  const Packet p = full_packet();
  m.on_loss_state(3 * 2 + 1, 999999);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(m.transmit(*f.engine, f.host(0), 3, p).status,
              TransmitResult::kLoss);
  }
  m.on_loss_state(3 * 2 + 1, 0);
  const TransmitResult r = m.transmit(*f.engine, f.host(0), 3, p);
  ASSERT_EQ(r.status, TransmitResult::kSent);
  EXPECT_EQ(r.arrive, kFullPacketService + microseconds(10));
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

// A stall failure must not disturb the flows that survive it: the 20 MB
// flow on links 3 -> 0 -> 4 sits before the failed flow in the active list
// and keeps its path and its full 1e8 bps share, so it completes in 1.6 s.
TEST(LinkModelFluid, StallFailureKeepsSurvivorsAccounted) {
  NetSimOptions no = hybrid_opts();
  no.link_model.fluid_stall_timeout_s = 0.5;
  Fixture f({0, 0, 0, 0}, no);
  f.sim->link_model().schedule_link_state(*f.engine, 2, microseconds(1),
                                          false);
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, milliseconds(5),
                                           f.host(0), f.host(1), 20000000, 0));
  ASSERT_TRUE(f.sim->start_background_flow(*f.engine, milliseconds(5),
                                           f.host(2), f.host(3), 1000000, 1));
  f.engine->run();
  const auto* fluid =
      dynamic_cast<const FluidLinkModel*>(&f.sim->link_model());
  ASSERT_NE(fluid, nullptr);
  EXPECT_EQ(fluid->bg_counters().failed, 1u);
  EXPECT_EQ(fluid->bg_counters().completed, 1u);
  const auto recs = f.sim->flow_records();
  const auto survivor = std::find_if(
      recs.begin(), recs.end(), [](const FlowRecord& r) { return r.tag == 0; });
  ASSERT_NE(survivor, recs.end());
  EXPECT_FALSE(survivor->failed);
  EXPECT_EQ(survivor->bytes, 20000000u);
  EXPECT_NEAR(survivor->duration_s(), 1.6, 0.02);
}

// ---- water-fill oracle ------------------------------------------------------

// Reference water-fill in its plain full-slot form: every round scans every
// slot for the bottleneck and every flow for the ones crossing it. `cap`
// holds every slot's capacity; blocked flows keep rate 0.
std::vector<double> reference_water_fill(
    const std::vector<std::vector<std::uint32_t>>& paths,
    const std::vector<char>& blocked, std::vector<double> cap,
    double rate_cap) {
  const std::size_t slots = cap.size();
  std::vector<std::int32_t> load(slots, 0);
  std::vector<double> rate(paths.size(), 0.0);
  std::vector<char> frozen(paths.size(), 0);
  std::int32_t unfrozen = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (blocked[i]) {
      frozen[i] = 1;
      continue;
    }
    for (const std::uint32_t slot : paths[i]) ++load[slot];
    ++unfrozen;
  }
  while (unfrozen > 0) {
    std::size_t bn = slots;
    double share = 0;
    for (std::size_t s = 0; s < slots; ++s) {
      if (load[s] <= 0) continue;
      const double sh = cap[s] / load[s];
      if (bn == slots || sh < share) {
        bn = s;
        share = sh;
      }
    }
    if (bn == slots) break;
    share = std::max(share, 0.0);
    if (rate_cap > 0 && rate_cap < share) {
      for (std::size_t i = 0; i < paths.size(); ++i) {
        if (frozen[i]) continue;
        rate[i] = rate_cap;
        frozen[i] = 1;
      }
      break;
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (frozen[i]) continue;
      const auto& path = paths[i];
      if (std::find(path.begin(), path.end(), bn) == path.end()) continue;
      rate[i] = share;
      frozen[i] = 1;
      --unfrozen;
      for (const std::uint32_t slot : path) {
        cap[slot] = std::max(cap[slot] - share, 0.0);
        --load[slot];
      }
    }
  }
  return rate;
}

// BRITE routes from hosts to a few servers, the water-fill oracle tests'
// instances.
struct FillNetwork {
  static constexpr int kServers = 30;
  static constexpr int kHosts = 300;

  explicit FillNetwork(std::uint64_t topo)
      : net(generate(topo)),
        fp(ForwardingPlane::build_flat(net, servers(net))),
        slots(net.links.size() * 2) {}

  static Network generate(std::uint64_t topo) {
    BriteOptions o;
    o.num_routers = 150;
    o.num_hosts = kHosts;
    o.seed = topo;
    return generate_flat(o);
  }
  static std::vector<NodeId> servers(const Network& net) {
    std::vector<NodeId> dests;
    for (int k = 0; k < kServers; ++k) {
      dests.push_back(
          net.nodes[static_cast<std::size_t>(net.num_routers + k)]
              .attach_router);
    }
    return dests;
  }

  /// The route from a random client host to a random server.
  std::vector<std::uint32_t> random_path(Rng& rng) const {
    const auto src = static_cast<NodeId>(
        net.num_routers + kServers +
        rng.uniform(static_cast<std::uint64_t>(kHosts - kServers)));
    const auto dst =
        static_cast<NodeId>(net.num_routers + rng.uniform(kServers));
    std::vector<std::uint32_t> path;
    route_slots(net, fp, src, dst, path);
    return path;
  }

  /// Draws every slot's state: one in 40 down; otherwise a capacity as the
  /// model measures it (bandwidth less packet load, floored at 1%, times a
  /// loss burst's delivery probability) or, when `coarse`, one of four
  /// multiples of 1e7 that force exact fair-share ties between slots that
  /// share flows, where the tie-break decides the rounding.
  void draw_slots(Rng& rng, bool coarse, std::vector<char>& down,
                  std::vector<double>& cap) const {
    down.assign(slots, 0);
    cap.assign(slots, 0.0);
    for (std::size_t s = 0; s < slots; ++s) {
      if (rng.uniform(40) == 0) {
        down[s] = 1;
        continue;
      }
      if (coarse) {
        cap[s] = 1e7 * static_cast<double>(1 + rng.uniform(4));
        continue;
      }
      const double bw = net.links[s / 2].bandwidth_bps;
      double c = bw;
      if (rng.uniform(6) == 0) {
        c = std::max(bw - rng.uniform_real(0, 1.2 * bw), 0.01 * bw);
      }
      if (rng.uniform(10) == 0) {
        c *= 1.0 - static_cast<double>(rng.uniform(1000000)) / 1e6;
      }
      cap[s] = c;
    }
  }

  Network net;
  ForwardingPlane fp;
  std::size_t slots;
};

// WaterFill must reproduce the reference bit for bit on BRITE routes to a
// few servers: with equal link bandwidths or coarse capacities forcing
// bottleneck ties, with measured packet load, loss-scaled and down slots,
// and with the rate cap off, at a typical fair share, and below it.
// Capacity is read exactly once per slot an unblocked flow crosses.
TEST(LinkModelFluid, WaterFillMatchesReference) {
  for (std::uint64_t topo = 1; topo <= 3; ++topo) {
    const FillNetwork fn(topo);
    WaterFill water_fill(fn.slots);  // reused across instances, as in the model

    for (std::uint64_t inst = 0; inst < 12; ++inst) {
      SCOPED_TRACE(testing::Message() << "topology " << topo << " instance "
                                      << inst);
      Rng rng(topo * 1000 + inst);
      std::vector<char> down;
      std::vector<double> cap;
      fn.draw_slots(rng, inst % 2 == 1, down, cap);

      const std::size_t flows = 20 + rng.uniform(300);
      std::vector<std::vector<std::uint32_t>> paths(flows);
      std::vector<char> blocked(flows, 0);
      std::vector<std::span<const std::uint32_t>> spans(flows);
      std::vector<char> loaded(fn.slots, 0);
      for (std::size_t i = 0; i < flows; ++i) {
        paths[i] = fn.random_path(rng);
        ASSERT_FALSE(paths[i].empty());
        blocked[i] = std::any_of(paths[i].begin(), paths[i].end(),
                                 [&](std::uint32_t s) { return down[s]; });
        if (blocked[i]) continue;
        spans[i] = paths[i];
        for (const std::uint32_t s : paths[i]) loaded[s] = 1;
      }

      for (const double rate_cap : {0.0, 1e7, 3e6}) {
        SCOPED_TRACE(testing::Message() << "rate cap " << rate_cap);
        std::vector<int> reads(fn.slots, 0);
        const std::vector<double> got = water_fill.fill(
            spans,
            [&](std::uint32_t s) {
              ++reads[s];
              return cap[s];
            },
            rate_cap);
        const std::vector<double> want =
            reference_water_fill(paths, blocked, cap, rate_cap);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < flows; ++i) {
          EXPECT_EQ(got[i], want[i]) << "flow " << i;
        }
        for (std::size_t s = 0; s < fn.slots; ++s) {
          EXPECT_EQ(reads[s], loaded[s]) << "slot " << s;
        }
      }
    }
  }
}

// The registrations a WaterFill keeps between fills, driven the way the
// model drives them: flows arrive, finish, block (registered again with an
// empty path) and unblock, possibly on a new path, and a removed handle is
// the next one handed out. Some paths cross one slot twice, which loads it
// twice. After every step every registered flow's rate must equal the
// reference over the flows registered then, every other handle's must be
// 0, and capacity must be read once per loaded slot.
TEST(LinkModelFluid, WaterFillChurnMatchesReference) {
  struct Flow {
    std::vector<std::uint32_t> path;
    std::uint32_t handle = 0;
    bool registered = false;
    bool blocked = false;
  };
  for (std::uint64_t topo = 1; topo <= 3; ++topo) {
    const FillNetwork fn(topo);
    WaterFill water_fill(fn.slots);
    Rng rng(topo * 7919);
    std::vector<Flow> flows;
    const auto add = [&](Flow& f, bool blocked) {
      f.blocked = blocked;
      f.registered = true;
      f.handle = water_fill.add(
          blocked ? std::span<const std::uint32_t>() : f.path);
    };
    const auto remove = [&](Flow& f) {
      water_fill.remove(f.handle);
      f.registered = false;
      // The handle just freed is the next one handed out.
      Flow probe;
      add(probe, /*blocked=*/true);
      EXPECT_EQ(probe.handle, f.handle);
      water_fill.remove(probe.handle);
    };
    const auto pick = [&](bool registered) -> Flow* {
      std::vector<Flow*> match;
      for (Flow& f : flows) {
        if (f.registered == registered) match.push_back(&f);
      }
      return match.empty() ? nullptr : match[rng.uniform(match.size())];
    };

    for (int step = 0; step < 150; ++step) {
      SCOPED_TRACE(testing::Message() << "topology " << topo << " step "
                                      << step);
      const std::uint64_t op = step < 40 ? 0 : rng.uniform(6);
      if (op <= 1) {  // arrival; one in four crosses its first slot twice
        Flow f;
        f.path = fn.random_path(rng);
        if (rng.uniform(4) == 0) f.path.push_back(f.path.front());
        flows.push_back(std::move(f));
        add(flows.back(), rng.uniform(8) == 0);
      } else if (op == 2) {  // finish or fail
        if (Flow* f = pick(true)) remove(*f);
      } else if (op == 3) {  // a finished flow's path comes back
        if (Flow* f = pick(false)) add(*f, false);
      } else if (op == 4) {  // block
        Flow* f = pick(true);
        if (f != nullptr && !f->blocked) {
          remove(*f);
          add(*f, true);
        }
      } else {  // unblock, on the old path or a new one
        std::vector<Flow*> blocked;
        for (Flow& f : flows) {
          if (f.registered && f.blocked) blocked.push_back(&f);
        }
        if (!blocked.empty()) {
          Flow& f = *blocked[rng.uniform(blocked.size())];
          remove(f);
          if (rng.uniform(2) == 0) f.path = fn.random_path(rng);
          add(f, false);
        }
      }

      std::vector<char> down;
      std::vector<double> cap;
      fn.draw_slots(rng, step % 2 == 1, down, cap);
      std::vector<std::vector<std::uint32_t>> paths;
      std::vector<char> blocked;
      std::vector<std::uint32_t> handles;
      std::vector<char> loaded(fn.slots, 0);
      for (const Flow& f : flows) {
        if (!f.registered) continue;
        paths.push_back(f.path);
        blocked.push_back(f.blocked);
        handles.push_back(f.handle);
        if (f.blocked) continue;
        for (const std::uint32_t s : f.path) loaded[s] = 1;
      }
      for (const double rate_cap : {0.0, 1e7, 3e6}) {
        SCOPED_TRACE(testing::Message() << "rate cap " << rate_cap);
        std::vector<int> reads(fn.slots, 0);
        const std::vector<double>& got = water_fill.fill(
            [&](std::uint32_t s) {
              ++reads[s];
              return cap[s];
            },
            rate_cap);
        const std::vector<double> want =
            reference_water_fill(paths, blocked, cap, rate_cap);
        std::vector<char> seen(got.size(), 0);
        for (std::size_t i = 0; i < paths.size(); ++i) {
          ASSERT_LT(handles[i], got.size());
          EXPECT_EQ(got[handles[i]], want[i]) << "handle " << handles[i];
          seen[handles[i]] = 1;
        }
        for (std::size_t h = 0; h < got.size(); ++h) {
          if (!seen[h]) {
            EXPECT_EQ(got[h], 0.0) << "free handle " << h;
          }
        }
        for (std::size_t s = 0; s < fn.slots; ++s) {
          EXPECT_EQ(reads[s], loaded[s]) << "slot " << s;
        }
      }
    }
  }
}

// WaterFill only scans slots whose fair share is at most the rate cap. A
// slot one ulp above the cap can round below it once a freeze at the cap
// takes some of its flows; it must then become the next bottleneck, so
// its other flows get that share, not the cap.
TEST(LinkModelFluid, WaterFillRelistsSlotRoundingBelowCap) {
  const double rate_cap = 12345678.9;
  // Slot 0 carries flows 0-3 at a fair share of exactly the cap; slot 1
  // carries flows 0-9 at one ulp above it.
  const std::vector<double> cap = {4 * rate_cap,
                                   std::nextafter(10 * rate_cap, 1e300)};
  ASSERT_GT(cap[1] / 10, rate_cap);
  std::vector<std::vector<std::uint32_t>> paths(10);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    paths[i] = i < 4 ? std::vector<std::uint32_t>{0, 1}
                     : std::vector<std::uint32_t>{1};
  }
  const std::vector<std::span<const std::uint32_t>> spans(paths.begin(),
                                                          paths.end());
  WaterFill water_fill(cap.size());
  const std::vector<double> got = water_fill.fill(
      spans, [&](std::uint32_t s) { return cap[s]; }, rate_cap);
  const std::vector<double> want = reference_water_fill(
      paths, std::vector<char>(paths.size(), 0), cap, rate_cap);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "flow " << i;
  }
  EXPECT_EQ(got[0], rate_cap);
  EXPECT_LT(got[9], rate_cap);
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

// packet -> fluid, one interval at a time. Packet TCP crosses the line
// while no fluid flow loads it and ends before a recompute that reads
// other slots (a 5 MB flow between r1's hosts finishing at ~0.4 s). A
// fluid flow admitted over the line at ~2 s must get exactly the duration
// it gets with no packet traffic at all: bytes from an earlier interval
// never count. Packet bytes sent over the line in the flow's own admission
// interval must slow it: bytes of the current interval are never lost.
TEST(LinkModelCoupling, PacketBytesCountOnlyInTheirInterval) {
  enum class Packets { kNone, kEarlier, kEarlierAndCurrent };
  struct Result {
    FlowRecord early_packet;  ///< tag 100
    FlowRecord disjoint;      ///< tag 0
    FlowRecord measured;      ///< tag 1
  };
  const auto run = [](Packets packets) {
    Fixture f({0, 0, 0, 0}, hybrid_opts(), /*hosts_per_router=*/2);
    // hosts: r0 -> {4,5}, r1 -> {6,7}, r2 -> {8,9}, r3 -> {10,11}
    f.sim->start_background_flow(*f.engine, 0, 6, 7, 5000000, 0);
    if (packets != Packets::kNone) {
      f.sim->start_flow(*f.engine, milliseconds(1), 4, 10, 300000, 100);
    }
    // Host 4's timer starts packet TCP over the line at 1.95 s; host 5's
    // starts the measured fluid flow over it at 2 s.
    f.sim->set_app_timer([](Engine& e, NetSim& s, NodeId host,
                            std::uint64_t, std::uint64_t) {
      if (host == 4) {
        s.start_flow(e, e.now(), 4, 10, 300000, 101);
      } else {
        s.start_background_flow(e, e.now(), 5, 11, 1000000, 1);
      }
    });
    if (packets == Packets::kEarlierAndCurrent) {
      f.sim->schedule_app_timer(*f.engine, 4, milliseconds(1950));
    }
    f.sim->schedule_app_timer(*f.engine, 5, seconds(2));
    f.engine->run();
    Result r;
    for (const FlowRecord& rec : f.sim->flow_records()) {
      const bool fluid = (rec.flow & FluidLinkModel::kFluidFlowBit) != 0;
      if (!fluid && rec.tag == 100) r.early_packet = rec;
      if (fluid && rec.tag == 0) r.disjoint = rec;
      if (fluid && rec.tag == 1) r.measured = rec;
    }
    return r;
  };
  const Result none = run(Packets::kNone);
  const Result earlier = run(Packets::kEarlier);
  const Result current = run(Packets::kEarlierAndCurrent);
  for (const Result* r : {&none, &earlier, &current}) {
    ASSERT_TRUE(r->measured.flow & FluidLinkModel::kFluidFlowBit);
    EXPECT_FALSE(r->measured.failed);
  }
  // The premise: the early packet flow ends before the recompute that
  // finishes the disjoint flow.
  ASSERT_FALSE(earlier.early_packet.failed);
  ASSERT_GT(earlier.early_packet.finished_at, 0);
  EXPECT_LT(earlier.early_packet.finished_at, earlier.disjoint.finished_at);

  const auto duration = [](const FlowRecord& r) {
    return r.finished_at - r.started_at;
  };
  EXPECT_EQ(duration(none.measured), milliseconds(80));  // 1 MB at 1e8 bps
  EXPECT_EQ(duration(earlier.measured), duration(none.measured));
  EXPECT_GT(duration(current.measured), duration(none.measured));
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

// FNV-1a over 64-bit words, low byte first.
struct Fnv {
  std::uint64_t hash = 14695981039346656037ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
};

struct FaultedRun {
  std::uint64_t records_hash = 0;  ///< (flow, finished_at, failed) by flow id
  FluidLinkModel::BgCounters bg;
  std::uint64_t events = 0;
};

// A BRITE network whose backbone is no faster than its access links, fluid
// background flows to five servers, packet TCP over the same servers'
// links, and faults on the links the fluid flows cross most:
//   - server 0's access link down for 0.2 s: its flows block, stall and
//     unblock on the same path;
//   - server 1's access link down for 0.8 s: its flows fail at the 0.4 s
//     stall timeout;
//   - the busiest backbone link down for 0.8 s: its flows block until OSPF
//     reconverges, then re-path and unblock;
//   - a 30% loss burst on the next busiest backbone link.
FaultedRun run_faulted_hybrid(std::int32_t threads) {
  constexpr int kServers = 5;
  constexpr int kFlows = 60;
  BriteOptions o;
  o.num_routers = 40;
  o.num_hosts = 80;
  o.router_bandwidth_bps = 5e7;
  o.seed = 11;
  const Network net = generate_flat(o);
  const auto server = [&](int k) {
    return static_cast<NodeId>(net.num_routers + k);
  };
  std::vector<NodeId> dests(static_cast<std::size_t>(net.num_routers));
  for (NodeId r = 0; r < net.num_routers; ++r) {
    dests[static_cast<std::size_t>(r)] = r;
  }
  ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  // Three LPs; the lookahead is the shortest link between two of them.
  std::vector<LpId> router_lp(static_cast<std::size_t>(net.num_routers));
  for (std::size_t r = 0; r < router_lp.size(); ++r) {
    router_lp[r] = static_cast<LpId>(r * 3 / router_lp.size());
  }
  SimTime lookahead = seconds(1);
  for (const NetLink& l : net.links) {
    if (net.is_router(l.a) && net.is_router(l.b) &&
        router_lp[static_cast<std::size_t>(l.a)] !=
            router_lp[static_cast<std::size_t>(l.b)]) {
      lookahead = std::min(lookahead, l.latency);
    }
  }
  EngineOptions eo;
  eo.lookahead = lookahead;
  eo.end_time = seconds(3);
  Engine engine(eo);
  NetSimOptions no = hybrid_opts();
  no.link_model.fluid_stall_timeout_s = 0.4;
  no.link_model.fluid_flow_rate_cap_bps = 2e7;
  NetSim sim(net, fp, router_lp, engine, no);

  struct Planned {
    SimTime at;
    NodeId src;
    NodeId dst;
    std::uint32_t bytes;
  };
  Rng rng(5);
  std::vector<Planned> flows;
  std::vector<int> crossings(net.links.size(), 0);
  std::vector<std::uint32_t> path;
  for (int i = 0; i < kFlows; ++i) {
    Planned p;
    p.src = server(kServers) +
            static_cast<NodeId>(rng.uniform(
                static_cast<std::uint64_t>(o.num_hosts - kServers)));
    p.dst = server(static_cast<int>(rng.uniform(kServers)));
    p.at = from_seconds(rng.uniform_real(0, 1.5));
    p.bytes = 200000 + static_cast<std::uint32_t>(rng.uniform(2000000));
    route_slots(net, fp, p.src, p.dst, path);
    for (const std::uint32_t s : path) ++crossings[s / 2];
    flows.push_back(p);
  }
  std::vector<LinkId> backbone;
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    if (net.is_router(link.a) && net.is_router(link.b)) backbone.push_back(l);
  }
  std::stable_sort(backbone.begin(), backbone.end(), [&](LinkId a, LinkId b) {
    return crossings[static_cast<std::size_t>(a)] >
           crossings[static_cast<std::size_t>(b)];
  });
  const auto access = [&](int k) { return net.incident(server(k))[0].link; };

  FaultSchedule faults;
  faults.link_down(milliseconds(300), access(0))
      .link_up(milliseconds(500), access(0))
      .link_down(milliseconds(600), access(1))
      .link_up(milliseconds(1400), access(1))
      .link_down(milliseconds(400), backbone[0])
      .link_up(milliseconds(1200), backbone[0])
      .loss_burst(milliseconds(200), backbone[1], milliseconds(700), 0.3);
  FaultInjector injector(net, fp);
  injector.arm(engine, sim, faults);
  for (int i = 0; i < kFlows; ++i) {
    const Planned& p = flows[static_cast<std::size_t>(i)];
    sim.start_background_flow(engine, p.at, p.src, p.dst, p.bytes,
                              static_cast<std::uint32_t>(i));
  }
  for (int i = 0; i < 6; ++i) {
    sim.start_flow(engine, milliseconds(50 + 150 * i), server(kServers + i),
                   server(i % 3), 300000, static_cast<std::uint32_t>(100 + i));
  }
  const RunStats stats =
      threads > 0 ? engine.run_threaded(threads) : engine.run();

  std::vector<FlowRecord> records = sim.flow_records();
  std::sort(records.begin(), records.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.flow < b.flow;
            });
  Fnv fnv;
  for (const FlowRecord& r : records) {
    fnv.add(r.flow);
    fnv.add(static_cast<std::uint64_t>(r.finished_at));
    fnv.add(r.failed ? 1 : 0);
  }
  FaultedRun run;
  run.records_hash = fnv.hash;
  run.bg = dynamic_cast<const FluidLinkModel&>(sim.link_model()).bg_counters();
  run.events = stats.total_events;
  return run;
}

// Pins what the fluid model computes through blocking, stalling,
// re-pathing, unblocking, stall failures and a loss burst, on both
// executors: three flows re-path around the backbone link, flows to
// server 0 stall and resume on the same path, and six flows fail. The
// expected values were recorded from the recompute that rebuilt the
// water-fill's index from every path; the incremental one must reproduce
// them.
TEST(LinkModelDeterminism, FaultedHybridGolden) {
  for (const std::int32_t threads : {0, 2}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const FaultedRun run = run_faulted_hybrid(threads);
    EXPECT_EQ(run.records_hash, 0xebeebcb5a2c0daf9ULL);
    EXPECT_EQ(run.events, 12982u);
    EXPECT_EQ(run.bg.started, 60u);
    EXPECT_EQ(run.bg.completed, 54u);
    EXPECT_EQ(run.bg.failed, 6u);
    EXPECT_EQ(run.bg.bytes_completed, 54251259u);
    EXPECT_EQ(run.bg.recomputes, 217u);
    EXPECT_EQ(run.bg.wakes, 365u);
  }
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

}  // namespace
}  // namespace massf
