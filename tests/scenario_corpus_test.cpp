// The scenario corpus: every file under scenarios/ must parse, round-trip
// through the canonical serializer, and actually run (at a shrunken
// scale). New scenario files are picked up automatically — drop a .dml in
// scenarios/ and it is under test; campaign files under
// scenarios/campaigns/ are parsed and expanded the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "dml/dml.hpp"
#include "sim/scenario_config.hpp"

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

// Scales a corpus scenario down to smoke-test size: same shape (app kind,
// executor, rebalance/ckpt/guard/fault wiring all preserved), a few
// hundred milliseconds of virtual time.
ScenarioSpec shrink(ScenarioSpec spec, const std::string& tmp) {
  spec.options.num_routers = 60;
  spec.options.num_hosts = 40;
  spec.options.num_as = std::min(spec.options.num_as, 4);
  spec.options.num_clients = 10;
  spec.options.num_servers = 4;
  spec.options.num_bg_sources = std::min(spec.options.num_bg_sources, 8);
  // GridNPB's mixed workload partitions its hosts three ways and insists
  // on >= 9; 12 keeps every app kind happy while staying tiny.
  spec.options.num_app_hosts = std::min(spec.options.num_app_hosts, 12);
  spec.options.num_engines = 4;
  spec.options.end_time = from_seconds(0.4);
  spec.options.profile_end_time = from_seconds(0.2);
  spec.options.executor_threads =
      std::min(spec.options.executor_threads, std::int32_t{2});
  if (!spec.options.ckpt.path.empty()) {
    spec.options.ckpt.path = tmp + "/corpus-smoke.ckpt";
    spec.options.ckpt.every_windows =
        std::min<std::uint64_t>(spec.options.ckpt.every_windows, 5);
  }
  spec.options.ckpt.restore_path.clear();
  if (!spec.options.guard.dump_path.empty()) {
    spec.options.guard.dump_path = tmp + "/corpus-guard.json";
  }
  if (spec.mappings.size() > 1) spec.mappings.resize(1);
  return spec;
}

TEST(ScenarioCorpus, HasAtLeastSixScenarios) {
  EXPECT_GE(discover(MASSF_SCENARIO_DIR).size(), 6u);
}

TEST(ScenarioCorpus, EveryScenarioParsesAndRoundTrips) {
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

TEST(ScenarioCorpus, EveryScenarioSmokeRuns) {
  const std::string tmp = ::testing::TempDir();
  for (const std::string& path : discover(MASSF_SCENARIO_DIR)) {
    std::string error;
    const auto spec = load_scenario_file(path, &error);
    ASSERT_TRUE(spec.has_value()) << path << ": " << error;

    CampaignRun run;
    run.id = fs::path(path).stem().string();
    run.spec = shrink(*spec, tmp);
    const RunRecord rec = execute_run(run, "");
    EXPECT_TRUE(rec.ok) << path << ": " << rec.error;
    EXPECT_GT(rec.windows, 0u) << path;
  }
}

TEST(ScenarioCorpus, EveryCampaignParsesAndExpands) {
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

}  // namespace
}  // namespace massf
