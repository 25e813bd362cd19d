// The scenario corpus: every file under scenarios/ must parse, round-trip
// through the canonical serializer, actually run (at a shrunken scale),
// and run bit-identically on the sequential and threaded executors. New
// scenario files are picked up automatically — drop a .dml in scenarios/
// and it is under test; campaign files under scenarios/campaigns/ are
// parsed and expanded the same way. The hybrid-fidelity campaign also runs
// at file scale, gating the fluid link model's fidelity and scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "corpus_shrink.hpp"
#include "dml/dml.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario_config.hpp"
#include "traffic/manager.hpp"

#ifndef MASSF_SCENARIO_DIR
#error "MASSF_SCENARIO_DIR must point at the repo's scenarios/ directory"
#endif

namespace massf {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> discover(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".dml") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string stem_of(const std::string& path) {
  return fs::path(path).stem().string();
}

// One fixture for the whole suite: the executor check below is
// value-parameterized, and gtest requires every test of a suite to share
// one fixture class.
class ScenarioCorpus : public ::testing::TestWithParam<std::string> {};

TEST_F(ScenarioCorpus, HasAtLeastSixScenarios) {
  EXPECT_GE(discover(MASSF_SCENARIO_DIR).size(), 6u);
}

TEST_F(ScenarioCorpus, EveryScenarioParsesAndRoundTrips) {
  for (const std::string& path : discover(MASSF_SCENARIO_DIR)) {
    std::string error;
    const auto spec = load_scenario_file(path, &error);
    ASSERT_TRUE(spec.has_value()) << path << ": " << error;

    // Canonical-form fixed point: serialize, re-parse, re-serialize,
    // compare text. (The serializer inlines fault-file includes as event
    // atoms, so the round trip is closed even for chaos scenarios.)
    const std::string text1 = write_dml(scenario_spec_to_dml(*spec));
    const auto reparsed = parse_scenario(text1, &error);
    ASSERT_TRUE(reparsed.has_value()) << path << ": " << error;
    const std::string text2 = write_dml(scenario_spec_to_dml(*reparsed));
    EXPECT_EQ(text1, text2) << path;
  }
}

TEST_F(ScenarioCorpus, EveryScenarioSmokeRuns) {
  for (const std::string& path : discover(MASSF_SCENARIO_DIR)) {
    std::string error;
    const auto spec = load_scenario_file(path, &error);
    ASSERT_TRUE(spec.has_value()) << path << ": " << error;

    CampaignRun run;
    run.id = stem_of(path);
    run.spec = shrink(*spec, ::testing::TempDir() + "corpus-smoke-" + run.id,
                      from_seconds(0.4));
    const RunRecord rec = execute_run(run, "");
    EXPECT_TRUE(rec.ok) << path << ": " << rec.error;
    EXPECT_GT(rec.windows, 0u) << path;
  }
}

// The paper's full-scale dimensions (Section 4) are configured in one
// file; a campaign over it runs the evaluation at the paper's scale.
TEST_F(ScenarioCorpus, PaperFullHasThePaperDimensions) {
  std::string error;
  const auto spec = load_scenario_file(
      std::string(MASSF_SCENARIO_DIR) + "/paper-full.dml", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->options.num_routers, 20000);
  EXPECT_EQ(spec->options.num_hosts, 10000);
  EXPECT_EQ(spec->options.num_as, 100);
  EXPECT_EQ(spec->options.num_engines, 90);
}

TEST_F(ScenarioCorpus, EveryCampaignParsesAndExpands) {
  const std::string dir = std::string(MASSF_SCENARIO_DIR) + "/campaigns";
  ASSERT_TRUE(fs::is_directory(dir));
  const auto files = discover(dir);
  EXPECT_GE(files.size(), 2u);
  for (const std::string& path : files) {
    std::string error;
    const auto spec = load_campaign_file(path, &error);
    ASSERT_TRUE(spec.has_value()) << path << ": " << error;
    EXPECT_FALSE(spec->runs.empty()) << path;
    // Ids are unique — a duplicated sweep point would silently collapse
    // run directories.
    std::vector<std::string> ids;
    for (const auto& run : spec->runs) ids.push_back(run.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << path;
  }
}

// What one executor run of a corpus scenario computed.
struct ExecutorRun {
  RunStats stats;
  double modeled_time_s = 0;
  std::uint64_t faults_injected = 0;
  /// The canonical metrics export, minus pdes.sched.threads (the worker
  /// count itself).
  std::string metrics;
};

ExecutorRun run_with_threads(ScenarioSpec spec, std::int32_t threads) {
  obs::Registry registry;
  spec.options.executor_threads = threads;
  spec.options.registry = &registry;
  Scenario scenario(spec.options);
  const ExperimentResult r = run_mapping(scenario, spec.mappings.front());

  std::vector<std::string_view> excludes(timing_metric_excludes().begin(),
                                         timing_metric_excludes().end());
  excludes.push_back("pdes.sched.threads");
  ExecutorRun out;
  out.stats = r.stats;
  out.modeled_time_s = r.metrics.simulation_time_s;
  out.faults_injected = r.faults_injected;
  out.metrics = obs::to_json_excluding(registry, excludes);
  return out;
}

// The determinism contract on the network simulation itself, not just the
// golden ring: every corpus scenario, run for up to 3 s of virtual time
// (long enough for chaos's faults to fire and hybrid-fidelity's fluid
// flows to complete), computes the same trace and the same metrics
// sequentially and on 2 and 4 threaded workers.
TEST_P(ScenarioCorpus, SequentialEqualsThreaded) {
  const std::string& path = GetParam();
  std::string error;
  const auto loaded = load_scenario_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << path << ": " << error;
  const ScenarioSpec spec = shrink(
      *loaded, ::testing::TempDir() + "corpus-executors-" + stem_of(path),
      std::min(loaded->options.end_time, seconds(3)));

  const ExecutorRun seq = run_with_threads(spec, 0);
  EXPECT_GT(seq.stats.num_windows, 0u);
  for (const std::int32_t threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const ExecutorRun thr = run_with_threads(spec, threads);
    EXPECT_EQ(thr.stats.total_events, seq.stats.total_events);
    EXPECT_EQ(thr.stats.num_windows, seq.stats.num_windows);
    EXPECT_EQ(thr.stats.events_per_lp, seq.stats.events_per_lp);
    EXPECT_EQ(thr.modeled_time_s, seq.modeled_time_s);
    EXPECT_EQ(thr.faults_injected, seq.faults_injected);
    EXPECT_EQ(thr.metrics, seq.metrics);
  }
}

// bgp-chaos.dml's BGP events reach the speakers at the shrink too: the
// session reset tears down both of its ends, and at least one BGP event
// gets a measured settle time.
TEST_F(ScenarioCorpus, BgpChaosEventsTakeEffect) {
  std::string error;
  const auto loaded = load_scenario_file(
      std::string(MASSF_SCENARIO_DIR) + "/bgp-chaos.dml", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ScenarioSpec spec =
      shrink(*loaded, ::testing::TempDir() + "corpus-bgp-chaos", seconds(3));
  obs::Registry registry;
  spec.options.registry = &registry;
  Scenario scenario(spec.options);
  scenario.run(spec.mappings.front());

  EXPECT_GT(registry.counter("bgp.session_resets").value(), 0u);
  std::uint64_t settles = 0;
  for (const auto& h : registry.histograms()) {
    if (h.name == "massf.fault.bgp_reconverge_s") settles = h.count;
  }
  EXPECT_GE(settles, 1u);
}

// What one run of the hybrid-fidelity campaign did with its background
// flows.
struct BackgroundStudy {
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  double mean_duration_s = 0;
  double mean_goodput_bps = 0;
};

// Runs one campaign run with flow records on, and prints its row.
BackgroundStudy run_background_study(const CampaignRun& run) {
  ScenarioOptions options = run.spec.options;
  options.netsim.collect_flow_records = true;
  Scenario scenario(options);
  const ExperimentResult r = scenario.run(run.spec.mappings.front());
  BackgroundStudy s;
  s.events = r.stats.total_events;
  double duration_s = 0;
  double goodput_bps = 0;
  for (const FlowRecord& rec : r.flow_records) {
    if (tag_kind(rec.tag) != TrafficKind::kBackground || rec.failed) continue;
    ++s.completed;
    duration_s += rec.duration_s();
    goodput_bps += rec.goodput_bps();
  }
  if (s.completed > 0) {
    s.mean_duration_s = duration_s / static_cast<double>(s.completed);
    s.mean_goodput_bps = goodput_bps / static_cast<double>(s.completed);
  }
  std::printf("%-22s sources %5d  events %8llu  completed %5llu  "
              "mean duration %.3f s  mean goodput %.3f Mbps\n",
              run.id.c_str(), run.spec.options.num_bg_sources,
              static_cast<unsigned long long>(s.events),
              static_cast<unsigned long long>(s.completed), s.mean_duration_s,
              s.mean_goodput_bps / 1e6);
  return s;
}

double rel_err(double value, double reference) {
  return reference > 0 ? std::abs(value - reference) / reference : 0.0;
}

// The hybrid link model's trade (DESIGN.md section 5k), at the campaign
// file's scale: the packet reference and the hybrid run at its source
// count must agree on the background flows' mean duration, mean goodput
// and completed count, and the hybrid model must carry at least 10x the
// sources inside the packet run's event budget. The bounds carry about 2x
// headroom over the measured values (EXPERIMENTS.md "Hybrid fidelity
// comparison"). Which run plays which role comes from its spec, not its
// tag.
TEST_F(ScenarioCorpus, HybridFidelityCampaignMeetsBounds) {
  std::string error;
  const auto campaign = load_campaign_file(
      std::string(MASSF_SCENARIO_DIR) + "/campaigns/hybrid-fidelity.dml",
      &error);
  ASSERT_TRUE(campaign.has_value()) << error;
  const auto model = [](const CampaignRun& run) {
    return run.spec.options.netsim.link_model.kind;
  };
  const auto reference = std::find_if(
      campaign->runs.begin(), campaign->runs.end(),
      [&](const CampaignRun& run) {
        return model(run) == LinkModelKind::kPacket;
      });
  ASSERT_NE(reference, campaign->runs.end());
  const std::int32_t base_sources = reference->spec.options.num_bg_sources;
  ASSERT_GT(base_sources, 0);

  const BackgroundStudy packet = run_background_study(*reference);
  EXPECT_GT(packet.completed, 0u);

  std::optional<BackgroundStudy> hybrid;  // at the reference's sources
  double host_scale = 0;
  for (const CampaignRun& run : campaign->runs) {
    if (&run == &*reference) continue;
    SCOPED_TRACE(run.id);
    ASSERT_EQ(model(run), LinkModelKind::kHybrid);
    const std::int32_t sources = run.spec.options.num_bg_sources;
    const BackgroundStudy s = run_background_study(run);
    EXPECT_GT(s.completed, 0u);
    if (sources == base_sources) hybrid = s;
    if (s.events <= packet.events) {
      host_scale = std::max(host_scale, static_cast<double>(sources) /
                                            static_cast<double>(base_sources));
    }
  }
  ASSERT_TRUE(hybrid.has_value()) << "no hybrid run at " << base_sources
                                  << " sources";
  ASSERT_GT(hybrid->events, 0u);

  const double event_ratio = static_cast<double>(packet.events) /
                             static_cast<double>(hybrid->events);
  const double duration_err =
      rel_err(hybrid->mean_duration_s, packet.mean_duration_s);
  const double goodput_err =
      rel_err(hybrid->mean_goodput_bps, packet.mean_goodput_bps);
  const double completed_err =
      rel_err(static_cast<double>(hybrid->completed),
              static_cast<double>(packet.completed));
  std::printf("host scale %.0fx  event ratio %.1fx  error: duration %.3f  "
              "goodput %.3f  completed %.3f\n",
              host_scale, event_ratio, duration_err, goodput_err,
              completed_err);
  EXPECT_GE(host_scale, 10.0);
  EXPECT_GE(event_ratio, 10.0);
  EXPECT_LE(duration_err, 0.5);
  EXPECT_LE(goodput_err, 0.2);
  EXPECT_LE(completed_err, 0.4);
}

// gtest parameter names allow only [A-Za-z0-9_].
std::string case_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = stem_of(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// No instantiation prefix: the cases are ScenarioCorpus.
// SequentialEqualsThreaded/<scenario>, one ctest entry per corpus file.
INSTANTIATE_TEST_SUITE_P(, ScenarioCorpus,
                         ::testing::ValuesIn(discover(MASSF_SCENARIO_DIR)),
                         case_name);

}  // namespace
}  // namespace massf
