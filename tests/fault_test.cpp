#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "net/netsim.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "routing/forwarding.hpp"
#include "topology/mabrite.hpp"
#include "traffic/manager.hpp"
#include "util/error.hpp"

namespace massf {
namespace {

// ---- FaultSchedule + scenario format ---------------------------------------

TEST(FaultSchedule, BuilderAccumulatesEvents) {
  FaultSchedule s;
  s.link_down(seconds(1), 3)
      .link_up(seconds(4), 3)
      .router_crash(seconds(2), 7)
      .router_restore(seconds(6), 7)
      .loss_burst(seconds(3), 2, seconds(1), 0.25)
      .bgp_reset(seconds(5), 1, 2, seconds(2));
  ASSERT_EQ(s.size(), 6u);
  EXPECT_EQ(s.events()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(s.events()[4].rate, 0.25);
  EXPECT_EQ(s.events()[5].peer, 2);
}

TEST(FaultSchedule, FlapTrainExpandsToDownUpPairs) {
  FaultSchedule s;
  s.flap_train(seconds(10), /*link=*/5, /*count=*/3, seconds(2),
               milliseconds(500));
  ASSERT_EQ(s.size(), 6u);
  for (std::int32_t i = 0; i < 3; ++i) {
    const FaultEvent& down = s.events()[static_cast<std::size_t>(2 * i)];
    const FaultEvent& up = s.events()[static_cast<std::size_t>(2 * i + 1)];
    EXPECT_EQ(down.kind, FaultKind::kLinkDown);
    EXPECT_EQ(up.kind, FaultKind::kLinkUp);
    EXPECT_EQ(down.target, 5);
    EXPECT_EQ(down.at, seconds(10) + seconds(2) * i);
    EXPECT_EQ(up.at - down.at, milliseconds(500));
  }
}

TEST(FaultSchedule, TextRoundTrips) {
  FaultSchedule s;
  s.link_down(seconds(1), 3)
      .link_up(seconds(4), 3)
      .router_crash(seconds(2), 7)
      .loss_burst(milliseconds(2500), 2, milliseconds(500), 0.3)
      .bgp_reset(seconds(5), 1, 2, seconds(1))
      .bgp_withdraw(seconds(6), 3)
      .bgp_announce(seconds(7), 3);
  const std::string text = s.to_text();
  std::string error;
  const auto parsed = parse_fault_schedule(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), s.size());
  // to_text() emits time-sorted lines; compare against the sorted original.
  std::vector<FaultEvent> want = s.events();
  std::stable_sort(
      want.begin(), want.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(parsed->events()[i].at, want[i].at) << i;
    EXPECT_EQ(parsed->events()[i].kind, want[i].kind) << i;
    EXPECT_EQ(parsed->events()[i].target, want[i].target) << i;
    EXPECT_EQ(parsed->events()[i].peer, want[i].peer) << i;
    EXPECT_EQ(parsed->events()[i].duration, want[i].duration) << i;
    EXPECT_DOUBLE_EQ(parsed->events()[i].rate, want[i].rate) << i;
  }
}

TEST(FaultSchedule, ParserHandlesCommentsAndBlanks) {
  const auto s = parse_fault_schedule(
      "# a comment line\n"
      "\n"
      "at 1.5 link_down link=2   # trailing comment\n"
      "at 2 flap link=0 count=2 period=1 downtime=0.25\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->size(), 5u);  // 1 link_down + 2 down/up pairs
}

TEST(FaultSchedule, ParserReportsLineAndCause) {
  std::string error;
  EXPECT_FALSE(parse_fault_schedule("at 1 link_down link=2\nboom\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  EXPECT_FALSE(parse_fault_schedule("at x link_down link=2\n", &error));
  EXPECT_NE(error.find("bad time"), std::string::npos) << error;

  EXPECT_FALSE(parse_fault_schedule("at 1 warp core=3\n", &error));
  EXPECT_NE(error.find("unknown event"), std::string::npos) << error;

  EXPECT_FALSE(parse_fault_schedule("at 1 link_down\n", &error));
  EXPECT_NE(error.find("link"), std::string::npos) << error;

  EXPECT_FALSE(
      parse_fault_schedule("at 1 loss link=0 duration=1 rate=1.5\n", &error));
  EXPECT_NE(error.find("0<rate<1"), std::string::npos) << error;

  EXPECT_FALSE(
      parse_fault_schedule("at 1 bgp_reset as=1 peer=1 downtime=1\n", &error));
  EXPECT_NE(error.find("as != peer"), std::string::npos) << error;

  EXPECT_FALSE(parse_fault_schedule("at 1 bgp_announce\n", &error));
  EXPECT_EQ(error, "line 1: missing or malformed as");

  EXPECT_FALSE(parse_fault_schedule("at 1 bgp_withdraw as=-1\n", &error));
  EXPECT_EQ(error, "line 1: as must be >= 0");
}

// ---- FaultInjector end to end ----------------------------------------------

// Small multi-AS world with dynamic BGP speakers (the BGP control traffic
// doubles as the injector's victim workload).
struct Rig {
  explicit Rig(std::int32_t lps = 1, SimTime end = seconds(30),
               const NetSimOptions& no = NetSimOptions{}) {
    MaBriteOptions o;
    o.num_as = 6;
    o.routers_per_as = 4;
    o.num_hosts = 12;
    o.seed = 5;
    net = generate_multi_as(o);
    speaker_hosts = add_bgp_speaker_hosts(net);
    std::vector<NodeId> dests;
    for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
         ++h) {
      dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
    }
    fp = std::make_unique<ForwardingPlane>(
        ForwardingPlane::build_multi_as(net, dests));

    std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
    SimTime lookahead = milliseconds(10);
    if (lps > 1) {
      for (NodeId r = 0; r < net.num_routers; ++r) {
        map[static_cast<std::size_t>(r)] =
            net.nodes[static_cast<std::size_t>(r)].as_id % lps;
      }
      lookahead = kSimTimeMax;
      for (const NetLink& l : net.links) {
        if (net.is_router(l.a) && net.is_router(l.b) &&
            map[static_cast<std::size_t>(l.a)] !=
                map[static_cast<std::size_t>(l.b)]) {
          lookahead = std::min(lookahead, l.latency);
        }
      }
    }
    EngineOptions eo;
    eo.lookahead = lookahead;
    eo.end_time = end;
    engine = std::make_unique<Engine>(eo);
    sim = std::make_unique<NetSim>(net, *fp, map, *engine, no);
    manager = std::make_unique<TrafficManager>(*sim);
    auto sp =
        std::make_unique<BgpSpeakers>(net, speaker_hosts, BgpDynamicOptions{});
    speakers = sp.get();
    manager->add(TrafficKind::kBgp, std::move(sp));
    injector = std::make_unique<FaultInjector>(net, *fp);
    injector->set_bgp(speakers);
  }

  /// First intra-AS router-router link of `as`.
  LinkId intra_link(AsId as) const {
    for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
      const NetLink& link = net.links[static_cast<std::size_t>(l)];
      if (!link.inter_as && net.is_router(link.a) && net.is_router(link.b) &&
          net.nodes[static_cast<std::size_t>(link.a)].as_id == as) {
        return l;
      }
    }
    return kInvalidLink;
  }

  /// The access link attaching `host`.
  LinkId access_link(NodeId host) const {
    for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
      if (net.links[static_cast<std::size_t>(l)].a == host ||
          net.links[static_cast<std::size_t>(l)].b == host) {
        return l;
      }
    }
    return kInvalidLink;
  }

  void run(const FaultSchedule& schedule, bool threaded = false) {
    injector->arm(*engine, *sim, schedule);
    manager->start(*engine, *sim);
    stats = threaded ? engine->run_threaded(2) : engine->run();
  }

  Network net;
  std::vector<NodeId> speaker_hosts;
  std::unique_ptr<ForwardingPlane> fp;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetSim> sim;
  std::unique_ptr<TrafficManager> manager;
  BgpSpeakers* speakers = nullptr;
  std::unique_ptr<FaultInjector> injector;
  RunStats stats;
};

TEST(FaultInjector, LossBurstDropsPacketsDeterministically) {
  // A loss burst on a speaker's access link is guaranteed to see traffic
  // (all of that speaker's BGP updates cross it), and the drop decisions
  // hash the fault seed — so the count is nonzero and repeatable.
  const auto drops = [](std::uint64_t seed) {
    NetSimOptions no;
    no.fault_seed = seed;
    Rig rig(1, seconds(30), no);
    FaultSchedule s;
    s.loss_burst(milliseconds(5), rig.access_link(rig.speaker_hosts[0]),
                 seconds(20), 0.3);
    rig.run(s);
    return rig.sim->totals().dropped_loss;
  };
  const std::uint64_t a = drops(1);
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, drops(1)) << "same fault seed, same drops";
}

// Diamond: h4 - r0 - {r1 fast | r2 slow} - r3 - h5. OSPF prefers r1, so a
// flow through the fast branch has packets in flight at r1 when it crashes.
Network diamond() {
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
  const auto link = [&](NodeId a, NodeId b, SimTime lat) {
    NetLink l;
    l.a = a;
    l.b = b;
    l.latency = lat;
    l.bandwidth_bps = 1e8;
    net.links.push_back(l);
  };
  link(0, 1, milliseconds(1));  // link 0: fast branch
  link(1, 3, milliseconds(1));  // link 1
  link(0, 2, milliseconds(5));  // link 2: slow branch
  link(2, 3, milliseconds(5));  // link 3
  link(0, 4, microseconds(10));
  link(3, 5, microseconds(10));
  net.build_adjacency();
  return net;
}

TEST(FaultInjector, RouterCrashBlackholesAndOspfReconverges) {
  Network net = diamond();
  ForwardingPlane fp = ForwardingPlane::build_flat(net, {{0, 3}});
  EngineOptions eo;
  eo.lookahead = milliseconds(1);
  eo.end_time = seconds(60);
  Engine engine(eo);
  NetSim sim(net, fp, std::vector<LpId>{0, 0, 0, 0}, engine, NetSimOptions{});

  FaultInjector injector(net, fp);
  FaultSchedule s;
  s.router_crash(milliseconds(50), 1).router_restore(seconds(5), 1);
  injector.arm(engine, sim, s);

  std::uint32_t completions = 0, failures = 0;
  sim.set_flow_complete([&](Engine&, NetSim&, FlowId, NodeId, NodeId,
                            std::uint32_t, bool failed) {
    ++(failed ? failures : completions);
  });
  // Flow 1 is mid-transfer through r1 when it crashes: in-flight packets
  // arrive at the dead router (node blackhole), the rest reroutes via r2
  // once OSPF reconverges, and TCP retransmission completes the transfer.
  // Flow 2 spans the restoration so the engine keeps opening windows while
  // the controller re-applies the interfaces.
  sim.start_flow(engine, milliseconds(1), 4, 5, 2000000, 1);
  sim.start_flow(engine, milliseconds(4500), 4, 5, 20000000, 2);
  engine.run();

  EXPECT_EQ(completions, 2u) << "both flows survive the crash";
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(sim.totals().dropped_node_down, 0u) << "in-flight blackhole";
  EXPECT_EQ(injector.faults_injected(), 2u);
  // r1's two router interfaces each went down and came back: 4 applied
  // OSPF changes, each at least the convergence delay after the data-plane
  // change (barrier quantization makes them later, never earlier).
  ASSERT_EQ(injector.ospf_reconvergence_s().size(), 4u);
  for (const double sec : injector.ospf_reconvergence_s()) {
    EXPECT_GE(sec, 0.2);
    EXPECT_LT(sec, 1.5);
  }
}

// ---- Link failover: data plane at once, OSPF one delay later -------------

// The diamond on one LP, with an injector whose OSPF convergence delay is
// `delay`.
struct DiamondRig {
  explicit DiamondRig(SimTime delay,
                      std::vector<LpId> router_lp = {0, 0, 0, 0})
      : net(diamond()), fp(ForwardingPlane::build_flat(net, {{0, 3}})) {
    EngineOptions eo;
    eo.lookahead = milliseconds(1);  // = min cross-LP latency (link 1-3)
    eo.end_time = seconds(120);
    engine = std::make_unique<Engine>(eo);
    sim = std::make_unique<NetSim>(net, fp, std::move(router_lp), *engine,
                                   NetSimOptions{});
    FaultInjectorOptions fo;
    fo.ospf_convergence_delay = delay;
    injector = std::make_unique<FaultInjector>(net, fp, fo);
  }

  Network net;
  ForwardingPlane fp;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetSim> sim;
  std::unique_ptr<FaultInjector> injector;
};

TEST(Failover, ReroutesAroundFailedLink) {
  DiamondRig rig(milliseconds(200));
  std::uint32_t completions = 0;
  SimTime completed_at = -1;
  rig.sim->set_flow_complete(
      [&](Engine& e, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
        completed_at = e.now();
      });
  // OSPF initially prefers the fast branch; verify.
  EXPECT_EQ(rig.fp.next_link(0, 3), 0);

  FaultSchedule s;
  s.link_down(milliseconds(50), /*link=*/0);
  rig.injector->arm(*rig.engine, *rig.sim, s);
  rig.sim->start_flow(*rig.engine, milliseconds(1), 4, 5, 2000000, 1);
  rig.engine->run();

  EXPECT_EQ(completions, 1u) << "flow must finish via the slow branch";
  EXPECT_EQ(rig.injector->ospf_reconvergence_s().size(), 1u);
  EXPECT_GT(rig.sim->totals().dropped_link_down, 0u);
  EXPECT_EQ(rig.sim->totals().flows_failed, 0u);
  // After reconvergence the fast branch is withdrawn.
  EXPECT_EQ(rig.fp.next_link(0, 3), 2);
  EXPECT_GT(completed_at, milliseconds(250));
}

TEST(Failover, RestoreReturnsToPrimaryPath) {
  DiamondRig rig(milliseconds(100));
  FaultSchedule s;
  s.link_down(milliseconds(10), 0).link_up(seconds(2), 0);
  rig.injector->arm(*rig.engine, *rig.sim, s);
  std::uint32_t completions = 0;
  rig.sim->set_flow_complete(
      [&](Engine&, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
      });
  // Keep traffic flowing across the whole episode.
  rig.sim->start_flow(*rig.engine, milliseconds(1), 4, 5, 1000000, 1);
  rig.sim->start_flow(*rig.engine, seconds(3), 4, 5, 1000000, 2);
  rig.engine->run();
  EXPECT_EQ(completions, 2u);
  EXPECT_EQ(rig.injector->ospf_reconvergence_s().size(), 2u);
  EXPECT_EQ(rig.fp.next_link(0, 3), 0);  // primary restored
}

TEST(Failover, EqualTimeChangesApplyInScheduleOrder) {
  // 16 pending flaps of the slow branch, then a down and an up of the fast
  // link at one instant among them: enough entries for an unstable sort to
  // swap the pair. The control plane must apply them in schedule order, as
  // the data plane does, and route over the link.
  DiamondRig rig(milliseconds(100));
  FaultSchedule s;
  for (int i = 0; i < 8; ++i) {
    s.link_down(seconds(1 + 2 * i), 3).link_up(seconds(2 + 2 * i), 3);
  }
  s.link_down(milliseconds(2500), 0).link_up(milliseconds(2500), 0);
  rig.injector->arm(*rig.engine, *rig.sim, s);
  rig.engine->run();
  EXPECT_GE(rig.injector->ospf_reconvergence_s().size(), 1u);
  EXPECT_EQ(rig.fp.next_link(0, 3), 0);
}

TEST(Failover, LinkDownRerouteRestoreBitIdenticalAcrossExecutors) {
  // The full kEvLinkState episode — down, OSPF reroute, back up, return to
  // the primary path — must be bit-identical under the sequential and
  // threaded executors: the data-plane change is an ordinary pre-scheduled
  // event and the control-plane change applies at a window barrier, which
  // falls at the same virtual time either way.
  struct Outcome {
    RunStats stats;
    NetSim::Counters counters;
    std::vector<SimTime> completion_times;
    LinkId final_next_link;
    std::vector<double> ospf_reconverge_s;
    bool operator==(const Outcome& o) const {
      return stats.total_events == o.stats.total_events &&
             stats.num_windows == o.stats.num_windows &&
             stats.events_per_lp == o.stats.events_per_lp &&
             counters.forwarded == o.counters.forwarded &&
             counters.dropped_link_down == o.counters.dropped_link_down &&
             counters.retransmits == o.counters.retransmits &&
             completion_times == o.completion_times &&
             final_next_link == o.final_next_link &&
             ospf_reconverge_s == o.ospf_reconverge_s;
    }
  };
  const auto run_once = [](bool threaded) {
    // Two LPs so the threaded executor actually runs in parallel.
    DiamondRig rig(milliseconds(200), {0, 0, 1, 1});
    FaultSchedule s;
    s.link_down(milliseconds(50), /*link=*/0).link_up(seconds(5), 0);
    rig.injector->arm(*rig.engine, *rig.sim, s);

    Outcome out;
    rig.sim->set_flow_complete([&](Engine& e, NetSim&, FlowId, NodeId,
                                   NodeId, std::uint32_t, bool) {
      out.completion_times.push_back(e.now());
    });
    // One flow spans the outage, one starts after the restore.
    rig.sim->start_flow(*rig.engine, milliseconds(1), 4, 5, 2000000, 1);
    rig.sim->start_flow(*rig.engine, seconds(6), 4, 5, 1000000, 2);
    out.stats =
        threaded ? rig.engine->run_threaded(2) : rig.engine->run();
    out.counters = rig.sim->totals();
    out.final_next_link = rig.fp.next_link(0, 3);
    out.ospf_reconverge_s = rig.injector->ospf_reconvergence_s();
    return out;
  };
  const Outcome seq = run_once(false);
  const Outcome thr = run_once(true);
  EXPECT_EQ(seq.completion_times.size(), 2u);
  EXPECT_EQ(seq.final_next_link, 0);  // primary path restored
  EXPECT_EQ(seq.ospf_reconverge_s.size(), 2u);
  EXPECT_GT(seq.counters.dropped_link_down, 0u);
  EXPECT_TRUE(seq == thr) << "executors diverged on the failover episode";
}

TEST(FaultInjector, ArmRejectsWhatTheNetworkCannotCarry) {
  // Each schedule opens with a valid event: arm() checks the whole
  // schedule before it schedules anything, so a rejected schedule leaves
  // the engine untouched. The diamond has no BGP speakers; the 6-AS Rig
  // has one per AS.
  const auto arm_error = [](auto&& rig, const FaultSchedule& bad) {
    FaultSchedule s;
    s.link_down(seconds(1), 0).append(bad);
    std::string what;
    try {
      rig.injector->arm(*rig.engine, *rig.sim, s);
      ADD_FAILURE() << "arm() accepted " << bad.to_text();
    } catch (const EngineError& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig);
      what = e.what();
    }
    EXPECT_EQ(rig.engine->lp_pending(0), 0u);
    EXPECT_TRUE(rig.engine->hooks().barrier.empty());
    return what;
  };

  const std::string link = arm_error(DiamondRig(milliseconds(200)),
                                     FaultSchedule().link_down(seconds(2), 99));
  EXPECT_NE(link.find("fault 'at 2 link_down link=99': link 99 is out of "
                      "range (the network has 6 links)"),
            std::string::npos)
      << link;

  // Node 4 is a host.
  const std::string crash =
      arm_error(DiamondRig(milliseconds(200)),
                FaultSchedule().router_crash(seconds(2), 4));
  EXPECT_NE(crash.find("fault 'at 2 crash router=4': node 4 is not a router "
                       "(the network has 4 routers)"),
            std::string::npos)
      << crash;

  // No set_bgp(): the run has no speakers to reset or toggle.
  const std::string bgp =
      arm_error(DiamondRig(milliseconds(200)),
                FaultSchedule().bgp_reset(seconds(2), 0, 1, seconds(1)));
  EXPECT_NE(bgp.find("fault 'at 2 bgp_reset as=0 peer=1 downtime=1': BGP "
                     "events need dynamic BGP speakers"),
            std::string::npos)
      << bgp;
  const std::string beacon =
      arm_error(DiamondRig(milliseconds(200)),
                FaultSchedule().bgp_withdraw(seconds(2), 0));
  EXPECT_NE(beacon.find("fault 'at 2 bgp_withdraw as=0': BGP events need "
                        "dynamic BGP speakers"),
            std::string::npos)
      << beacon;

  // With speakers: every AS must exist, and a reset needs a session.
  const std::string peer = arm_error(
      Rig(), FaultSchedule().bgp_reset(seconds(2), 0, 99, seconds(1)));
  EXPECT_NE(peer.find("fault 'at 2 bgp_reset as=0 peer=99 downtime=1': AS 99 "
                      "is out of range (the network has 6 ASes)"),
            std::string::npos)
      << peer;
  const std::string announce =
      arm_error(Rig(), FaultSchedule().bgp_announce(seconds(2), 6));
  EXPECT_NE(announce.find("fault 'at 2 bgp_announce as=6': AS 6 is out of "
                          "range (the network has 6 ASes)"),
            std::string::npos)
      << announce;

  const Rig probe;
  AsId a = 0, b = 0;
  for (AsId x = 0; x < probe.net.num_as() && a == b; ++x) {
    for (AsId y = x + 1; y < probe.net.num_as() && a == b; ++y) {
      const bool adjacent = std::any_of(
          probe.net.as_adjacency.begin(), probe.net.as_adjacency.end(),
          [&](const AsAdjacency& e) {
            return (e.as_a == x && e.as_b == y) || (e.as_a == y && e.as_b == x);
          });
      if (!adjacent) {
        a = x;
        b = y;
      }
    }
  }
  ASSERT_NE(a, b) << "every AS pair of the rig is adjacent";
  const std::string session = arm_error(
      Rig(), FaultSchedule().bgp_reset(seconds(2), a, b, seconds(1)));
  EXPECT_NE(session.find("ASes " + std::to_string(a) + " and " +
                         std::to_string(b) + " share no BGP session"),
            std::string::npos)
      << session;
}

TEST(FaultInjector, BgpResetReconvergenceMeasured) {
  Rig rig(1, seconds(40));
  const AsAdjacency& adj = rig.net.as_adjacency.front();
  FaultSchedule s;
  s.bgp_reset(seconds(10), adj.as_a, adj.as_b, seconds(2));
  rig.run(s);
  ASSERT_EQ(rig.injector->bgp_reconvergence().size(), 1u);
  const auto& r = rig.injector->bgp_reconvergence()[0];
  EXPECT_EQ(r.at, seconds(10));
  // The session re-establishes at 12 s and the full-table re-advertisement
  // settles shortly after, so the measured settle time is a bit over the
  // 2 s downtime.
  EXPECT_GE(r.settle_s, 2.0);
  EXPECT_LT(r.settle_s, 10.0);
  EXPECT_EQ(rig.speakers->session_resets(), 2u);
}

TEST(FaultInjector, ScriptedScenarioBitIdenticalAcrossExecutors) {
  // The acceptance scenario: flap train + router crash + BGP session reset,
  // parsed from the text format, must produce bit-identical RunStats and
  // byte-identical metrics JSON under both executors.
  const auto run_once = [](bool threaded) {
    Rig rig(/*lps=*/2, seconds(40));
    const AsAdjacency& adj = rig.net.as_adjacency.front();
    char text[256];
    std::snprintf(text, sizeof text,
                  "at 10 flap link=%d count=3 period=2 downtime=0.5\n"
                  "at 12 crash router=%d\n"
                  "at 18 restore router=%d\n"
                  "at 15 bgp_reset as=%d peer=%d downtime=2\n",
                  rig.intra_link(0), rig.net.as_info[1].first_router,
                  rig.net.as_info[1].first_router, adj.as_a, adj.as_b);
    std::string error;
    const auto schedule = parse_fault_schedule(text, &error);
    EXPECT_TRUE(schedule.has_value()) << error;
    rig.run(*schedule, threaded);

    obs::Registry registry;
    rig.sim->publish_metrics(registry);
    rig.manager->publish_metrics(registry);
    rig.injector->publish_metrics(registry);
    return std::make_tuple(rig.stats.total_events, rig.stats.num_windows,
                           rig.stats.events_per_lp, rig.stats.end_vtime,
                           obs::to_json(registry));
  };
  const auto seq = run_once(false);
  const auto thr = run_once(true);
  EXPECT_GT(std::get<0>(seq), 0u);
  EXPECT_EQ(seq, thr);
  // The metrics JSON carries the massf.fault.v1 block.
  EXPECT_NE(std::get<4>(seq).find("massf.fault.injected"), std::string::npos);
  EXPECT_NE(std::get<4>(seq).find("massf.fault.ospf_reconverge_s"),
            std::string::npos);
}

}  // namespace
}  // namespace massf
