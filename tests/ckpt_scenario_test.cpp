// End-to-end checkpoint/restore and supervised recovery over the real
// simulation stack, driven the way production runs drive it: through
// Scenario's own orchestration (CkptOptions / set_ckpt) and the run loop
// massf_cli and the campaign runner share (run_mapping).
//
//  * Checkpoint/restore: a run checkpoints to a file and stops, a second
//    run on the same Scenario restores from the file, and the resumed
//    run's ExperimentResult, probe rows and canonical metrics must equal
//    the uninterrupted run's — under both executors, both traffic
//    applications, a fault schedule spanning the snapshot, and a multi-AS
//    run with dynamic BGP whose snapshot is taken mid-outage (a crashed
//    router, a withdrawn prefix, a BGP session down).
//
//  * Supervised recovery: a threaded run of the bgp-chaos corpus scenario
//    with one LP's clock frozen stalls; the guarded runner's ladder must
//    recover to exactly the unguarded sequential result.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.hpp"
#include "corpus_shrink.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"

#ifndef MASSF_SCENARIO_DIR
#error "MASSF_SCENARIO_DIR must point at the repo's scenarios/ directory"
#endif

namespace massf {
namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void expect_same_stats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.num_windows, b.num_windows);
  EXPECT_EQ(a.events_per_lp, b.events_per_lp);
  EXPECT_EQ(a.end_vtime, b.end_vtime);
  EXPECT_EQ(a.cross_lp_events, b.cross_lp_events);
  EXPECT_EQ(a.merge_batches, b.merge_batches);
  EXPECT_EQ(double_bits(a.modeled_wall_s), double_bits(b.modeled_wall_s));
  EXPECT_EQ(double_bits(a.modeled_sync_s), double_bits(b.modeled_sync_s));
  ASSERT_EQ(a.busy_s.size(), b.busy_s.size());
  for (std::size_t i = 0; i < a.busy_s.size(); ++i) {
    EXPECT_EQ(double_bits(a.busy_s[i]), double_bits(b.busy_s[i])) << i;
  }
}

void expect_same_counters(const NetSim::Counters& a,
                          const NetSim::Counters& b) {
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.dropped_queue, b.dropped_queue);
  EXPECT_EQ(a.dropped_no_route, b.dropped_no_route);
  EXPECT_EQ(a.dropped_link_down, b.dropped_link_down);
  EXPECT_EQ(a.dropped_node_down, b.dropped_node_down);
  EXPECT_EQ(a.dropped_loss, b.dropped_loss);
  EXPECT_EQ(a.app_timers_dropped, b.app_timers_dropped);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.flows_started, b.flows_started);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.flows_failed, b.flows_failed);
  EXPECT_EQ(a.udp_delivered, b.udp_delivered);
}

void expect_same_probe_rows(const obs::WindowProbe& a,
                            const obs::WindowProbe& b) {
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    const obs::WindowProbe::Window& wa = a.windows()[i];
    const obs::WindowProbe::Window& wb = b.windows()[i];
    EXPECT_EQ(wa.index, wb.index) << i;
    EXPECT_EQ(double_bits(wa.start_vtime_s), double_bits(wb.start_vtime_s))
        << i;
    EXPECT_EQ(wa.events, wb.events) << i;
    EXPECT_EQ(wa.max_lp_events, wb.max_lp_events) << i;
    EXPECT_EQ(wa.queue_depth, wb.queue_depth) << i;
    EXPECT_EQ(wa.outbox, wb.outbox) << i;
    EXPECT_EQ(wa.outbox_batches, wb.outbox_batches) << i;
  }
}

// ---- Scenario orchestration -------------------------------------------------

ScenarioOptions tiny_options() {
  ScenarioOptions o;
  o.multi_as = false;
  o.num_routers = 160;
  o.num_hosts = 80;
  o.num_clients = 24;
  o.num_servers = 8;
  o.num_engines = 4;
  o.app = AppKind::kScaLapack;
  o.num_app_hosts = 9;
  o.end_time = seconds(2);
  o.profile_end_time = seconds(1);
  o.http.think_time_mean_s = 0.4;
  o.seed = 17;
  return o;
}

struct ScenarioCkptCase {
  AppKind app;
  std::int32_t threads;
  /// Faults whose outages span the checkpoint.
  bool faulted = false;
  /// Multi-AS with dynamic BGP: BGP events and a crash span the
  /// checkpoint.
  bool bgp = false;
};

// Prints the thread count alone, so test names read
// "<instantiation>/ScenarioCkpt.RestoredRunMatchesUninterrupted/<threads>".
void PrintTo(const ScenarioCkptCase& c, std::ostream* os) { *os << c.threads; }

class ScenarioCkpt : public ::testing::TestWithParam<ScenarioCkptCase> {};

TEST_P(ScenarioCkpt, RestoredRunMatchesUninterrupted) {
  const auto [app, threads, faulted, bgp] = GetParam();
  const std::string path = ::testing::TempDir() + "/scenario_" +
                           app_kind_name(app) + "_t" +
                           std::to_string(threads) +
                           (faulted ? "_faulted" : "") + (bgp ? "_bgp" : "") +
                           ".ckpt";

  ScenarioOptions base = tiny_options();
  base.app = app;
  base.executor_threads = threads;
  // Windows are ~3.7 ms long here. Window 40 falls before any OSPF change
  // can apply (the convergence delay is 200 ms), so the faulted case cuts
  // at window 150 (~0.57 s): the crash's OSPF changes have applied by
  // then, the link's are still queued, and both outages end after it.
  // Router links come first in a generated network.
  std::uint64_t cut_window = 40;
  if (faulted) {
    cut_window = 150;
    base.faults.router_crash(milliseconds(100), 3)
        .link_down(milliseconds(450), 0)
        .router_restore(milliseconds(900), 3)
        .link_up(milliseconds(1000), 0);
  }
  if (bgp) {
    // Four ASes of 40 routers (ASes 0-2 are always adjacent; router 85 is
    // in AS 2). Windows are ~8.6 ms long here, so window 117 cuts at
    // ~1.0 s: router 85 is down, AS 3's prefix is withdrawn and the 0-1
    // session is down. AS 3's re-announcement at 1.1 s reaches ASes 0 and
    // 1 before their session returns at 1.4 s, so a resumed run that lost
    // the session state would send it across; the router returns at
    // 1.5 s.
    base.multi_as = true;
    base.num_as = 4;
    cut_window = 117;
    base.faults.router_crash(milliseconds(300), 85)
        .bgp_withdraw(milliseconds(400), 3)
        .bgp_reset(milliseconds(600), 0, 1, milliseconds(800))
        .bgp_announce(milliseconds(1100), 3)
        .router_restore(milliseconds(1500), 85);
  }

  // Uninterrupted reference run.
  obs::WindowProbe probe_ref;
  obs::Registry registry_ref;
  ScenarioOptions oref = base;
  oref.probe = &probe_ref;
  oref.registry = &registry_ref;
  Scenario ref(oref);
  const ExperimentResult want = ref.run(MappingKind::kTop2);

  // Interrupted then resumed, on one Scenario (same topology and hosts).
  // The registry is re-created in place after the cut, so the Scenario's
  // pointer stays valid and the export holds what the resumed run
  // published.
  obs::WindowProbe probe_res;
  std::optional<obs::Registry> registry_res(std::in_place);
  ScenarioOptions ores = base;
  ores.probe = &probe_res;
  ores.registry = &*registry_res;
  Scenario resumed(ores);
  CkptOptions save;
  save.every_windows = cut_window;
  save.path = path;
  save.stop_after = true;
  resumed.set_ckpt(save);
  const ExperimentResult cut = resumed.run(MappingKind::kTop2);
  // Stopped at the snapshot boundary.
  ASSERT_EQ(cut.stats.num_windows, cut_window);
  ASSERT_LT(cut.stats.num_windows, want.stats.num_windows);

  CkptOptions load;
  load.restore_path = path;
  resumed.set_ckpt(load);
  registry_res.emplace();
  const ExperimentResult got = resumed.run(MappingKind::kTop2);

  expect_same_stats(want.stats, got.stats);
  expect_same_counters(want.counters, got.counters);
  EXPECT_EQ(double_bits(want.metrics.simulation_time_s),
            double_bits(got.metrics.simulation_time_s));
  EXPECT_EQ(want.metrics.total_events, got.metrics.total_events);
  EXPECT_EQ(want.faults_injected, got.faults_injected);
  expect_same_probe_rows(probe_ref, probe_res);
  const std::string want_json =
      obs::to_json_excluding(registry_ref, timing_metric_excludes());
  EXPECT_EQ(want_json,
            obs::to_json_excluding(*registry_res, timing_metric_excludes()));
  EXPECT_EQ(faulted || bgp, want_json.find("massf.fault.injected") !=
                                std::string::npos);
  if (bgp) {
    EXPECT_EQ(registry_ref.counter("bgp.session_resets").value(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Executors, ScenarioCkpt,
    ::testing::Values(ScenarioCkptCase{AppKind::kScaLapack, 0},
                      ScenarioCkptCase{AppKind::kScaLapack, 3}));
// GridNPB's mixed dataflow graphs (three workloads over the 9 app hosts).
INSTANTIATE_TEST_SUITE_P(
    GridNpbExecutors, ScenarioCkpt,
    ::testing::Values(ScenarioCkptCase{AppKind::kGridNpb, 0},
                      ScenarioCkptCase{AppKind::kGridNpb, 3}));
// A crash and a link outage across the checkpoint: the injector's
// reconvergence records, queued OSPF changes and massf.fault.* metrics
// resume with the rest of the run.
INSTANTIATE_TEST_SUITE_P(
    FaultedExecutors, ScenarioCkpt,
    ::testing::Values(ScenarioCkptCase{AppKind::kScaLapack, 0, true},
                      ScenarioCkptCase{AppKind::kScaLapack, 3, true}));

// Dynamic BGP, a crash, a withdrawn prefix and a session reset, all in
// flux at the checkpoint: RIBs, session epochs and pending updates resume
// with the rest of the run, and the injector's OSPF records through the
// counts and sum of massf.fault.ospf_reconverge_s.
INSTANTIATE_TEST_SUITE_P(
    BgpChaosExecutors, ScenarioCkpt,
    ::testing::Values(
        ScenarioCkptCase{AppKind::kScaLapack, 0, false, true},
        ScenarioCkptCase{AppKind::kScaLapack, 2, false, true}));

// ---- supervised recovery ----------------------------------------------------

// GuardedRun's ladder through a real stall: bgp-chaos.dml, shrunk, on two
// threads with LP 3's clock frozen after 100 windows. The watchdog cancels
// the wedged attempt, `retries 0` sends the ladder straight to rung 1 (one
// thread, which the freeze cannot stall), and the recovered run equals an
// unguarded sequential one.
TEST(GuardedScenario, InjectedStallRecoversToTheSequentialResult) {
  const std::string path = std::string(MASSF_SCENARIO_DIR) + "/bgp-chaos.dml";
  const std::string scratch = ::testing::TempDir() + "guarded-bgp-chaos";
  const auto run = [&](const std::string& override_text, bool freeze,
                       obs::Registry& registry) {
    std::string error;
    const auto loaded = load_scenario_file(path, &error, override_text);
    EXPECT_TRUE(loaded.has_value()) << error;
    const ScenarioSpec spec = shrink(*loaded, scratch, seconds(3));
    ScenarioOptions opts = spec.options;
    opts.registry = &registry;
    Scenario scenario(opts);
    if (freeze) {
      scenario.set_pre_run([](Engine& engine, NetSim&) {
        engine.test_freeze_lp_clock(3, /*after_windows=*/100);
      });
    }
    return run_mapping(scenario, spec, spec.mappings.front(), &registry);
  };

  obs::Registry want_registry;
  const MappingRun want = run("executor_threads 0", false, want_registry);
  obs::Registry got_registry;
  const MappingRun got =
      run("executor_threads 2 guard.enabled 1 guard.deadline_s 0.5 "
          "guard.policy recover guard.retries 0",
          true, got_registry);

  ASSERT_TRUE(want.result.has_value());
  ASSERT_TRUE(got.result.has_value()) << got.guard.last_error;
  EXPECT_EQ(want.guard.attempts, 0);  // unsupervised
  EXPECT_TRUE(got.guard.completed);
  EXPECT_EQ(got.guard.attempts, 2);
  EXPECT_EQ(got.guard.stalls, 1u);
  EXPECT_EQ(got.guard.degraded_rung, 1);
  EXPECT_EQ(got.result->stats.total_events, want.result->stats.total_events);
  EXPECT_EQ(got.result->stats.num_windows, want.result->stats.num_windows);
  EXPECT_EQ(double_bits(got.result->metrics.simulation_time_s),
            double_bits(want.result->metrics.simulation_time_s));
  // Canonical metrics minus guard.* (timing_metric_excludes drops it) and
  // the worker count itself.
  std::vector<std::string_view> excludes(timing_metric_excludes().begin(),
                                         timing_metric_excludes().end());
  excludes.push_back("pdes.sched.threads");
  EXPECT_EQ(obs::to_json_excluding(got_registry, excludes),
            obs::to_json_excluding(want_registry, excludes));
}

}  // namespace
}  // namespace massf
