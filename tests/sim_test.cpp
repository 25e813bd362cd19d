// Integration tests: the full pipeline (topology -> routing -> profiling ->
// mapping -> packet simulation -> metrics) at small scale, single- and
// multi-AS, across all mapping approaches.
#include <gtest/gtest.h>

#include <set>

#include "sim/report.hpp"
#include "sim/failover.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"

namespace massf {
namespace {

ScenarioOptions small_options(bool multi_as) {
  ScenarioOptions o;
  o.multi_as = multi_as;
  o.num_routers = 240;
  o.num_hosts = 120;
  o.num_as = 8;
  o.num_clients = 40;
  o.num_servers = 10;
  o.num_engines = 6;
  o.app = AppKind::kScaLapack;
  o.num_app_hosts = 9;
  o.end_time = seconds(3);
  o.profile_end_time = seconds(1);
  o.http.think_time_mean_s = 0.5;
  o.seed = 11;
  return o;
}

class ScenarioKinds
    : public ::testing::TestWithParam<std::tuple<bool, MappingKind>> {};

TEST_P(ScenarioKinds, RunsAndReportsSaneMetrics) {
  const auto [multi_as, kind] = GetParam();
  Scenario scenario(small_options(multi_as));
  const ExperimentResult r = scenario.run(kind);

  EXPECT_GT(r.metrics.total_events, 1000u);
  EXPECT_GT(r.metrics.simulation_time_s, 0);
  EXPECT_GT(r.metrics.num_windows, 0u);
  EXPECT_GE(r.metrics.parallel_efficiency, 0);
  EXPECT_LE(r.metrics.parallel_efficiency, 1.01);
  EXPECT_GE(r.metrics.load_imbalance, 0);
  EXPECT_GT(r.metrics.sync_fraction, 0);
  EXPECT_LT(r.metrics.sync_fraction, 1.0);

  // Traffic actually flowed and completed.
  EXPECT_GT(r.counters.flows_completed, 10u);
  EXPECT_GT(r.counters.forwarded, r.counters.delivered);

  // Mapping sanity.
  std::set<LpId> used(r.mapping.router_lp.begin(), r.mapping.router_lp.end());
  EXPECT_EQ(used.size(), 6u);
  EXPECT_GT(r.mapping.achieved_mll, 0);
}

INSTANTIATE_TEST_SUITE_P(
    All, ScenarioKinds,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(MappingKind::kTop2,
                                         MappingKind::kProf2,
                                         MappingKind::kHTop,
                                         MappingKind::kHProf)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "MultiAs" : "SingleAs") +
             mapping_kind_name(std::get<1>(info.param));
    });

TEST(Scenario, ProfileCachedAndNonTrivial) {
  Scenario scenario(small_options(false));
  const TrafficProfile& p1 = scenario.profile();
  const TrafficProfile& p2 = scenario.profile();
  EXPECT_EQ(&p1, &p2);  // cached
  std::uint64_t total = 0;
  for (auto e : p1.router_events) total += e;
  EXPECT_GT(total, 1000u);
}

TEST(Scenario, DeterministicEndToEnd) {
  const auto run_once = [] {
    Scenario scenario(small_options(false));
    const ExperimentResult r = scenario.run(MappingKind::kHProf);
    return std::make_tuple(r.metrics.total_events, r.stats.num_windows,
                           r.counters.forwarded, r.mapping.tmll);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Scenario, HierarchicalImprovesOnFlat) {
  // The paper's headline: hierarchical profile-based mapping reduces
  // simulation time. At this small scale we assert the weaker, robust
  // property: HPROF's MLL clears the sync cost and its modeled time does
  // not exceed the flat mapping's by more than noise.
  ScenarioOptions o = small_options(false);
  o.num_routers = 400;
  o.num_hosts = 200;
  o.num_clients = 60;
  Scenario scenario(o);
  const ExperimentResult flat = scenario.run(MappingKind::kTop2);
  const ExperimentResult hier = scenario.run(MappingKind::kHProf);
  EXPECT_GT(hier.mapping.achieved_mll,
            scenario.options().cluster.sync_cost_time());
  EXPECT_LT(hier.metrics.simulation_time_s,
            1.10 * flat.metrics.simulation_time_s);
}

TEST(Scenario, LookaheadMatchesMapping) {
  Scenario scenario(small_options(false));
  const Mapping m = scenario.mapping_for(MappingKind::kHTop);
  EXPECT_EQ(scenario.lookahead_for(m.router_lp), m.achieved_mll);
}

TEST(Scenario, GridNpbWorkloadRuns) {
  ScenarioOptions o = small_options(false);
  o.app = AppKind::kGridNpb;
  o.num_app_hosts = 12;
  Scenario scenario(o);
  const ExperimentResult r = scenario.run(MappingKind::kHProf);
  EXPECT_GT(r.counters.flows_completed, 10u);
}

TEST(Scenario, NoAppStillRuns) {
  ScenarioOptions o = small_options(false);
  o.app = AppKind::kNone;
  Scenario scenario(o);
  const ExperimentResult r = scenario.run(MappingKind::kTop2);
  EXPECT_GT(r.metrics.total_events, 100u);
}

TEST(Scenario, MultiAsBgpTrafficDelivered) {
  Scenario scenario(small_options(true));
  const ExperimentResult r = scenario.run(MappingKind::kProf2);
  EXPECT_TRUE(scenario.forwarding().is_multi_as());
  EXPECT_GT(r.counters.flows_completed, 10u);
  // BGP route misses are counted, not crashed on.
  EXPECT_EQ(r.counters.dropped_no_route, 0u);
}

TEST(Scenario, ThreadedExecutorMatchesSequential) {
  ScenarioOptions o = small_options(false);
  Scenario sequential(o);
  o.executor_threads = 3;
  Scenario threaded(o);
  const ExperimentResult a = sequential.run(MappingKind::kHProf);
  const ExperimentResult b = threaded.run(MappingKind::kHProf);
  EXPECT_EQ(a.metrics.total_events, b.metrics.total_events);
  EXPECT_EQ(a.stats.num_windows, b.stats.num_windows);
  EXPECT_EQ(a.stats.events_per_lp, b.stats.events_per_lp);
  EXPECT_EQ(a.counters.forwarded, b.counters.forwarded);
  EXPECT_EQ(a.counters.flows_completed, b.counters.flows_completed);
  EXPECT_DOUBLE_EQ(a.metrics.simulation_time_s, b.metrics.simulation_time_s);
}

// ---- Failover / routing reconvergence --------------------------------------

namespace failover_detail {

// Diamond: h6 - r0 - {r1 fast | r2 slow} - r3 - h7. OSPF prefers r1.
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

struct Rig {
  Rig() : net(diamond()), fp(ForwardingPlane::build_flat(net, {{0, 3}})) {
    EngineOptions eo;
    eo.lookahead = milliseconds(1);
    eo.end_time = seconds(120);
    engine = std::make_unique<Engine>(eo);
    sim = std::make_unique<NetSim>(net, fp,
                                   std::vector<LpId>{0, 0, 0, 0}, *engine,
                                   NetSimOptions{});
  }
  Network net;
  ForwardingPlane fp;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetSim> sim;
};

}  // namespace failover_detail

TEST(Failover, ReroutesAroundFailedLink) {
  failover_detail::Rig rig;
  FailoverController ctl(rig.fp, /*convergence_delay=*/milliseconds(200));
  ctl.attach(*rig.engine);

  std::uint32_t completions = 0;
  SimTime completed_at = -1;
  rig.sim->set_flow_complete(
      [&](Engine& e, NetSim&, FlowId, NodeId, NodeId, std::uint32_t, bool) {
        ++completions;
        completed_at = e.now();
      });
  // OSPF initially prefers the fast branch; verify.
  EXPECT_EQ(rig.fp.next_link(0, 3), 0);

  ctl.fail_link(*rig.engine, *rig.sim, /*link=*/0, milliseconds(50));
  rig.sim->start_flow(*rig.engine, milliseconds(1), 4, 5, 2000000, 1);
  rig.engine->run();

  EXPECT_EQ(completions, 1u) << "flow must finish via the slow branch";
  EXPECT_EQ(ctl.reconvergences(), 1);
  EXPECT_GT(rig.sim->totals().dropped_link_down, 0u);
  EXPECT_EQ(rig.sim->totals().flows_failed, 0u);
  // After reconvergence the fast branch is withdrawn.
  EXPECT_EQ(rig.fp.next_link(0, 3), 2);
  EXPECT_GT(completed_at, milliseconds(250));
}

TEST(Failover, RestoreReturnsToPrimaryPath) {
  failover_detail::Rig rig;
  FailoverController ctl(rig.fp, milliseconds(100));
  ctl.attach(*rig.engine);
  ctl.fail_link(*rig.engine, *rig.sim, 0, milliseconds(10));
  ctl.restore_link(*rig.engine, *rig.sim, 0, seconds(2));
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
  EXPECT_EQ(ctl.reconvergences(), 2);
  EXPECT_EQ(rig.fp.next_link(0, 3), 0);  // primary restored
}

TEST(Failover, EqualTimeChangesApplyInScheduleOrder) {
  // 16 pending flaps of the slow branch, then a down and an up of the fast
  // link at one instant among them: enough entries for an unstable sort to
  // swap the pair. The control plane must apply them in schedule order, as
  // the data plane does, and route over the link.
  failover_detail::Rig rig;
  FailoverController ctl(rig.fp, milliseconds(100));
  ctl.attach(*rig.engine);
  for (int i = 0; i < 8; ++i) {
    ctl.fail_link(*rig.engine, *rig.sim, 3, seconds(1 + 2 * i));
    ctl.restore_link(*rig.engine, *rig.sim, 3, seconds(2 + 2 * i));
  }
  ctl.fail_link(*rig.engine, *rig.sim, 0, milliseconds(2500));
  ctl.restore_link(*rig.engine, *rig.sim, 0, milliseconds(2500));
  rig.engine->run();
  EXPECT_GE(ctl.reconvergences(), 1);
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
    std::int32_t reconvergences;
    bool operator==(const Outcome& o) const {
      return stats.total_events == o.stats.total_events &&
             stats.num_windows == o.stats.num_windows &&
             stats.events_per_lp == o.stats.events_per_lp &&
             counters.forwarded == o.counters.forwarded &&
             counters.dropped_link_down == o.counters.dropped_link_down &&
             counters.retransmits == o.counters.retransmits &&
             completion_times == o.completion_times &&
             final_next_link == o.final_next_link &&
             reconvergences == o.reconvergences;
    }
  };
  const auto run_once = [](bool threaded) {
    Network net = failover_detail::diamond();
    ForwardingPlane fp = ForwardingPlane::build_flat(net, {{0, 3}});
    EngineOptions eo;
    eo.lookahead = milliseconds(1);  // = min cross-LP latency (link 1-3)
    eo.end_time = seconds(120);
    Engine engine(eo);
    // Two LPs so the threaded executor actually runs in parallel.
    NetSim sim(net, fp, std::vector<LpId>{0, 0, 1, 1}, engine,
               NetSimOptions{});
    FailoverController ctl(fp, milliseconds(200));
    ctl.attach(engine);
    ctl.fail_link(engine, sim, /*link=*/0, milliseconds(50));
    ctl.restore_link(engine, sim, /*link=*/0, seconds(5));

    Outcome out;
    sim.set_flow_complete([&](Engine& e, NetSim&, FlowId, NodeId, NodeId,
                              std::uint32_t, bool) {
      out.completion_times.push_back(e.now());
    });
    sim.start_flow(engine, milliseconds(1), 4, 5, 2000000, 1);  // spans down
    sim.start_flow(engine, seconds(6), 4, 5, 1000000, 2);       // after up
    out.stats = threaded ? engine.run_threaded(2) : engine.run();
    out.counters = sim.totals();
    out.final_next_link = fp.next_link(0, 3);
    out.reconvergences = ctl.reconvergences();
    return out;
  };
  const Outcome seq = run_once(false);
  const Outcome thr = run_once(true);
  EXPECT_EQ(seq.completion_times.size(), 2u);
  EXPECT_EQ(seq.final_next_link, 0);  // primary path restored
  EXPECT_EQ(seq.reconvergences, 2);
  EXPECT_GT(seq.counters.dropped_link_down, 0u);
  EXPECT_TRUE(seq == thr) << "executors diverged on the failover episode";
}

TEST(Failover, ScenarioTrafficSurvivesBackboneFailure) {
  // Full-pipeline smoke test: fail a backbone link mid-run in a generated
  // network; traffic keeps completing after reconvergence.
  ScenarioOptions o = small_options(false);
  o.end_time = seconds(4);
  Scenario scenario(o);
  const Mapping m = scenario.mapping_for(MappingKind::kHProf);

  // Re-run the scenario manually so we can hook the failover in.
  EngineOptions eo;
  eo.lookahead = scenario.lookahead_for(m.router_lp);
  eo.end_time = o.end_time;
  Engine engine(eo);
  // The forwarding plane is shared/const inside Scenario, so copy the
  // construction here with a mutable one.
  std::vector<NodeId> dests;
  for (NodeId h : scenario.client_hosts()) {
    dests.push_back(scenario.network()
                        .nodes[static_cast<std::size_t>(h)]
                        .attach_router);
  }
  for (NodeId h : scenario.server_hosts()) {
    dests.push_back(scenario.network()
                        .nodes[static_cast<std::size_t>(h)]
                        .attach_router);
  }
  ForwardingPlane fp =
      ForwardingPlane::build_flat(scenario.network(), dests);
  NetSim sim(scenario.network(), fp, m.router_lp, engine, NetSimOptions{});
  TrafficManager manager(sim);
  HttpOptions ho;
  ho.think_time_mean_s = 0.2;
  manager.add(TrafficKind::kHttp,
              std::make_unique<HttpWorkload>(
                  std::vector<NodeId>(scenario.client_hosts().begin(),
                                      scenario.client_hosts().end()),
                  std::vector<NodeId>(scenario.server_hosts().begin(),
                                      scenario.server_hosts().end()),
                  ho));
  FailoverController ctl(fp, milliseconds(150));
  ctl.attach(engine);
  // Fail the first router-router link.
  for (LinkId l = 0; l < static_cast<LinkId>(scenario.network().links.size());
       ++l) {
    const NetLink& link = scenario.network().links[static_cast<std::size_t>(l)];
    if (scenario.network().is_router(link.a) &&
        scenario.network().is_router(link.b)) {
      ctl.fail_link(engine, sim, l, seconds(1));
      break;
    }
  }
  manager.start(engine, sim);
  engine.run();
  EXPECT_EQ(ctl.reconvergences(), 1);
  EXPECT_GT(sim.totals().flows_completed, 50u);
}

TEST(Report, SummaryMentionsMapping) {
  Scenario scenario(small_options(false));
  const ExperimentResult r = scenario.run(MappingKind::kTop2);
  const std::string s = summarize(r);
  EXPECT_NE(s.find("TOP2"), std::string::npos);
  EXPECT_NE(s.find("PE="), std::string::npos);
}

TEST(ScenarioConfig, MappingKindNames) {
  EXPECT_EQ(mapping_kind_from_name("HPROF"), MappingKind::kHProf);
  EXPECT_EQ(mapping_kind_from_name("GREEDY"), MappingKind::kGreedy);
  EXPECT_EQ(mapping_kind_from_name("PLACE"), MappingKind::kPlace);
  EXPECT_FALSE(mapping_kind_from_name("nope").has_value());
}

}  // namespace
}  // namespace massf
