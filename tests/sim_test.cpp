// Integration tests: the full pipeline (topology -> routing -> profiling ->
// mapping -> packet simulation -> metrics) at small scale, single- and
// multi-AS, across all mapping approaches.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "campaign/runner.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/error.hpp"

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

TEST(Scenario, HostPoolLargerThanNetworkIsAConfigError) {
  const auto construction_error = [](const ScenarioOptions& o) {
    try {
      Scenario scenario(o);
      ADD_FAILURE() << "the host pool fits";
    } catch (const EngineError& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig);
      return std::string(e.what());
    }
    return std::string();
  };

  ScenarioOptions o = small_options(false);
  o.num_clients = 1000;
  const std::string pool = construction_error(o);
  EXPECT_NE(pool.find("the scenario needs 1019 hosts (clients 1000 + "
                      "servers 10 + app_hosts 9 + background sources 0) "
                      "but hosts is 120"),
            std::string::npos)
      << pool;

  o = small_options(false);
  o.num_servers = 0;
  o.num_bg_sources = 4;
  const std::string bg = construction_error(o);
  EXPECT_NE(bg.find("4 background sources need servers to target, but "
                    "servers is 0"),
            std::string::npos)
      << bg;

  // The cross-key cases the parser cannot see. Unchecked, each crashes:
  // SIGFPE on as 0, a MASSF_CHECK abort in maBrite, the HTTP workload or
  // the app builders.
  o = small_options(false);
  o.num_servers = 0;
  const std::string clients = construction_error(o);
  EXPECT_NE(clients.find("40 clients need servers to request from, but "
                         "servers is 0"),
            std::string::npos)
      << clients;

  o = small_options(false);
  o.num_app_hosts = 3;
  const std::string app = construction_error(o);
  EXPECT_NE(app.find("app ScaLapack needs app_hosts >= 4, but app_hosts is 3"),
            std::string::npos)
      << app;

  const struct {
    std::int32_t routers;
    std::int32_t as;
    const char* error;
  } kMultiAs[] = {
      {240, 0, "multi_as 1 needs as >= 3, but as is 0"},
      {240, 1, "multi_as 1 needs as >= 3, but as is 1"},
      {30, 20, "multi_as 1 needs routers / as >= 2, but routers 30 / as 20 "
               "is 1"},
  };
  for (const auto& c : kMultiAs) {
    o = small_options(true);
    o.num_routers = c.routers;
    o.num_as = c.as;
    const std::string multi_as = construction_error(o);
    EXPECT_NE(multi_as.find(c.error), std::string::npos) << multi_as;
  }
}

// ---- Faults ----------------------------------------------------------------

/// A router-router link of the highest-degree router in the network `o`
/// builds: busy enough that failing it drops packets.
LinkId backbone_link(const ScenarioOptions& o) {
  const Scenario probe(o);
  const Network& net = probe.network();
  NodeId hub = 0;
  for (NodeId r = 1; r < net.num_routers; ++r) {
    if (net.incident(r).size() > net.incident(hub).size()) hub = r;
  }
  for (const Network::Incidence& inc : net.incident(hub)) {
    if (net.is_router(inc.peer)) return inc.link;
  }
  ADD_FAILURE() << "the hub has no router neighbour";
  return 0;
}

std::string canonical_json(const obs::Registry& registry) {
  return obs::to_json_excluding(registry, timing_metric_excludes());
}

TEST(Failover, ScenarioTrafficSurvivesBackboneFailure) {
  // Full pipeline: a backbone link fails mid-run in a generated network;
  // traffic keeps completing after OSPF reconverges around it.
  ScenarioOptions o = small_options(false);
  o.end_time = seconds(4);
  o.faults.link_down(seconds(1), backbone_link(o));
  obs::Registry registry;
  o.registry = &registry;
  Scenario scenario(o);
  const ExperimentResult r = scenario.run(MappingKind::kHProf);

  EXPECT_EQ(r.faults_injected, 1u);
  std::uint64_t reconvergences = 0;
  for (const auto& h : registry.histograms()) {
    if (h.name == "massf.fault.ospf_reconverge_s") reconvergences = h.count;
  }
  EXPECT_EQ(reconvergences, 1u);
  EXPECT_GT(r.counters.flows_completed, 50u);
}

TEST(Scenario, FaultedMappingRunsAsIfAlone) {
  // The schedule leaves a backbone link down at the end of every run. A
  // Scenario that runs TOP2 first must still give HPROF — its profiling
  // run, mapping and measured run — exactly what a fresh Scenario gives:
  // each run arms its own injector and leaves the forwarding plane as
  // construction built it.
  ScenarioOptions o = small_options(false);
  o.faults.link_down(seconds(1), backbone_link(o));

  // Re-created in place after TOP2, so the Scenario's pointer stays valid
  // and the export holds what HPROF published alone.
  std::optional<obs::Registry> shared_registry(std::in_place);
  ScenarioOptions shared_options = o;
  shared_options.registry = &*shared_registry;
  Scenario shared(shared_options);
  const ExperimentResult top2 = shared.run(MappingKind::kTop2);
  EXPECT_EQ(top2.faults_injected, 1u);
  shared_registry.emplace();
  const ExperimentResult after = shared.run(MappingKind::kHProf);

  obs::Registry alone_registry;
  ScenarioOptions alone_options = o;
  alone_options.registry = &alone_registry;
  Scenario fresh(alone_options);
  const ExperimentResult alone = fresh.run(MappingKind::kHProf);

  EXPECT_EQ(after.faults_injected, 1u);
  EXPECT_GT(alone.counters.dropped_link_down, 0u) << "the fault must bite";
  EXPECT_EQ(after.mapping.router_lp, alone.mapping.router_lp);
  EXPECT_EQ(after.mapping.achieved_mll, alone.mapping.achieved_mll);
  EXPECT_EQ(after.metrics.total_events, alone.metrics.total_events);
  EXPECT_EQ(after.stats.num_windows, alone.stats.num_windows);
  EXPECT_EQ(after.stats.events_per_lp, alone.stats.events_per_lp);
  EXPECT_EQ(after.counters.forwarded, alone.counters.forwarded);
  EXPECT_EQ(after.counters.delivered, alone.counters.delivered);
  EXPECT_EQ(after.counters.dropped_link_down,
            alone.counters.dropped_link_down);
  EXPECT_EQ(after.counters.flows_completed, alone.counters.flows_completed);
  EXPECT_DOUBLE_EQ(after.metrics.simulation_time_s,
                   alone.metrics.simulation_time_s);
  EXPECT_EQ(canonical_json(*shared_registry), canonical_json(alone_registry));
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
