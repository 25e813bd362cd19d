// Campaign parsing, expansion, the result.kv wire format, the roll-up
// JSON, and the worker-count determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"

namespace massf {
namespace {

constexpr const char* kTinyBase =
    "  Experiment [\n"
    "    routers 60\n"
    "    hosts 40\n"
    "    clients 10\n"
    "    servers 4\n"
    "    app none\n"
    "    engines 4\n"
    "    seconds 0.4\n"
    "    profile_seconds 0.2\n"
    "  ]\n";

std::string parse_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(parse_campaign(text, &error).has_value()) << text;
  return error;
}

// Strips the trailing "timing" section — everything above it is the
// deterministic part of the roll-up.
std::string canonical_rollup(const std::string& json) {
  const auto pos = json.find("  \"timing\"");
  EXPECT_NE(pos, std::string::npos);
  return json.substr(0, pos);
}

// ---- parser error matrix ---------------------------------------------------

TEST(Campaign, ErrorMatrix) {
  const struct {
    std::string text;
    std::string error;
  } kCases[] = {
      {"Experiment [ routers 60 ]", "missing top-level Campaign [ ] block"},
      {"Campaign [\n  turbo 1\n]",
       "line 2: unknown key 'turbo' in Campaign (prefix with x_ to ignore)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    flavor mild\n  ]\n]",
       "line 13: unknown sweep axis 'flavor' (seed|threads|mapping|"
       "override)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    shards 2\n  ]\n]",
       "line 13: unknown sweep axis 'shards' (seed|threads|mapping|"
       "override)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    seed 1\n    sync barrier\n  ]\n]",
       "line 14: unknown sweep axis 'sync' (seed|threads|mapping|"
       "override)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    seed minus\n  ]\n]",
       "line 13: 'seed' wants an integer, got 'minus'"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    threads -1\n  ]\n]",
       "line 13: 'threads' must be >= 0"},
      // No golden-ring rows: the ring is pinned by its own tests.
      {"Campaign [\n  golden 1\n" + std::string(kTinyBase) + "]",
       "line 2: unknown key 'golden' in Campaign (prefix with x_ to "
       "ignore)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    override [ guard [ enabled 1 ] ]\n  ]\n]",
       "line 13: override entries must be scalar (use dotted keys for "
       "sub-blocks)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    override [ rebalance.enabled 1 ]\n  ]\n]",
       "line 13: unknown key 'rebalance' in Experiment (prefix with x_ to "
       "ignore)"},
      {"Campaign [\n" + std::string(kTinyBase) + "  scenario a.dml\n]",
       "line 12: both `scenario` and an embedded Experiment [ ] block given"},
      {"Campaign [\n  scenario missing.dml\n]",
       "line 2: cannot open scenario 'missing.dml'"},
      {"Campaign [\n" + std::string(kTinyBase) + "  workers 0\n]",
       "line 12: 'workers' must be >= 1"},
      {"Campaign [\n  name empty\n]",
       "missing a base scenario (`scenario` file or an embedded Experiment "
       "[ ] block)"},
      // A repeated label on one axis would give two runs one id, and the
      // roll-up would merge them into one aggregate.
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    override [ tag a  routers 80 ]\n"
           "    override [ tag a  routers 90 ]\n  ]\n]",
       "line 14: duplicate override label 'a' (first at line 13)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    override [ tag o1  routers 80 ]\n"
           "    override [ routers 90 ]\n  ]\n]",
       "line 14: duplicate override label 'o1' (first at line 13)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    seed 1\n    seed 2\n    seed 1\n  ]\n]",
       "line 15: duplicate seed label '1' (first at line 13)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    threads 2\n    threads 2\n  ]\n]",
       "line 14: duplicate threads label '2' (first at line 13)"},
      {"Campaign [\n" + std::string(kTinyBase) +
           "  sweep [\n    mapping HPROF\n    seed 1\n"
           "    mapping HPROF\n  ]\n]",
       "line 15: duplicate mapping label 'HPROF' (first at line 13)"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(parse_error(c.text), c.error) << c.text;
  }
}

// A bad value on a sweep axis surfaces through the strict scenario
// re-parse, carrying the campaign file's line number.
TEST(Campaign, BadAxisValueIsLineNumbered) {
  const std::string error = parse_error(
      "Campaign [\n" + std::string(kTinyBase) +
      "  sweep [\n    mapping WARP\n  ]\n]");
  EXPECT_EQ(error, "line 13: unknown mapping 'WARP'");
}

TEST(Campaign, OverrideTypoIsLineNumbered) {
  const std::string error = parse_error(
      "Campaign [\n" + std::string(kTinyBase) +
      "  sweep [\n    override [ routres 80 ]\n  ]\n]");
  EXPECT_EQ(error,
            "line 13: unknown key 'routres' in Experiment (prefix with x_ "
            "to ignore)");
}

// ---- expansion -------------------------------------------------------------

TEST(Campaign, ExpansionOrderAndIds) {
  std::string error;
  const auto spec = parse_campaign(
      "Campaign [\n" + std::string(kTinyBase) +
          "  sweep [\n"
          "    seed 1\n    seed 2\n"
          "    threads 0\n    threads 2\n"
          "  ]\n]",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->runs.size(), 4u);
  // threads is the outer axis, seed the inner one.
  EXPECT_EQ(spec->runs[0].id, "threads=0,seed=1");
  EXPECT_EQ(spec->runs[1].id, "threads=0,seed=2");
  EXPECT_EQ(spec->runs[2].id, "threads=2,seed=1");
  EXPECT_EQ(spec->runs[3].id, "threads=2,seed=2");
  EXPECT_EQ(spec->runs[2].spec.options.executor_threads, 2);
  EXPECT_EQ(spec->runs[3].spec.options.seed, 2u);
}

TEST(Campaign, NoAxesYieldsSingleBaseRun) {
  std::string error;
  const auto spec =
      parse_campaign("Campaign [\n" + std::string(kTinyBase) + "]", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->runs.size(), 1u);
  EXPECT_EQ(spec->runs[0].id, "base");
  EXPECT_TRUE(spec->runs[0].axis.empty());
}

TEST(Campaign, OverrideAxisMergesAndTags) {
  std::string error;
  const auto spec = parse_campaign(
      "Campaign [\n" + std::string(kTinyBase) +
          "  sweep [\n"
          "    override [ tag small  routers 80  guard.enabled 1 ]\n"
          "    override [ tag wide  routers 200 ]\n"
          "    seed 7\n"
          "  ]\n]",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->runs.size(), 2u);
  EXPECT_EQ(spec->runs[0].id, "override=small,seed=7");
  EXPECT_EQ(spec->runs[0].spec.options.num_routers, 80);
  EXPECT_TRUE(spec->runs[0].spec.options.guard.enabled);
  EXPECT_EQ(spec->runs[1].id, "override=wide,seed=7");
  EXPECT_EQ(spec->runs[1].spec.options.num_routers, 200);
  EXPECT_FALSE(spec->runs[1].spec.options.guard.enabled);
  EXPECT_EQ(spec->runs[1].spec.options.seed, 7u);
}

// ---- run directories + wire format -----------------------------------------

TEST(Campaign, RunDirNameIsShellSafe) {
  CampaignRun run;
  run.id = "threads=0,seed=2";
  EXPECT_EQ(run_dir_name(7, run), "007-threads_0_seed_2");
  run.id = "override=it's [out],seed=2";
  EXPECT_EQ(run_dir_name(8, run), "008-override_it_s__out__seed_2");
}

TEST(Campaign, RunRecordKvRoundTrip) {
  RunRecord rec;
  rec.id = "threads=2,seed=2";
  rec.axis = {{"threads", "2"}, {"seed", "2"}};
  rec.ok = true;
  rec.mapping = "HPROF";
  rec.events = 123456;
  rec.windows = 77;
  rec.modeled_time_s = 0.4;
  rec.load_imbalance = 1.25;
  rec.parallel_efficiency = 0.8;
  rec.mll_ms = 12.5;
  rec.faults_injected = 3;
  rec.wall_s = 1.5;

  RunRecord back;
  std::string error;
  ASSERT_TRUE(run_record_from_kv(run_record_to_kv(rec), &back, &error))
      << error;
  EXPECT_EQ(back.id, rec.id);
  ASSERT_EQ(back.axis.size(), 2u);
  EXPECT_EQ(back.axis[1].axis, "seed");
  EXPECT_EQ(back.axis[1].label, "2");
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.mapping, "HPROF");
  EXPECT_EQ(back.events, rec.events);
  EXPECT_EQ(back.windows, rec.windows);
  EXPECT_DOUBLE_EQ(back.modeled_time_s, rec.modeled_time_s);
  EXPECT_DOUBLE_EQ(back.load_imbalance, rec.load_imbalance);
  EXPECT_DOUBLE_EQ(back.parallel_efficiency, rec.parallel_efficiency);
  EXPECT_DOUBLE_EQ(back.mll_ms, rec.mll_ms);
  EXPECT_EQ(back.faults_injected, 3u);
  EXPECT_DOUBLE_EQ(back.wall_s, 1.5);

  RunRecord failed;
  failed.id = "x";
  failed.ok = false;
  failed.error = "multi\nline\tdiagnostic";
  ASSERT_TRUE(run_record_from_kv(run_record_to_kv(failed), &back, &error))
      << error;
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "multi line diagnostic");

  EXPECT_FALSE(run_record_from_kv("id\tx\n", &back, &error));
  EXPECT_EQ(error, "result.kv has no `ok` line");
}

// The roll-up table carries every figure metric: T (Figures 6/10),
// achieved MLL (7/11), imbalance (8/12) and PE (9/13).
TEST(Campaign, TableShowsAllFourFigureMetrics) {
  CampaignSpec spec;
  spec.name = "paper";
  CampaignOutcome outcome;
  RunRecord rec;
  rec.id = "override=single-scalapack,mapping=HPROF";
  rec.ok = true;
  rec.mapping = "HPROF";
  rec.events = 123456;
  rec.modeled_time_s = 3.717;
  rec.mll_ms = 1.916;
  rec.load_imbalance = 0.099;
  rec.parallel_efficiency = 0.325;
  rec.wall_s = 1.5;
  outcome.runs.push_back(rec);

  EXPECT_EQ(campaign_table(spec, outcome),
            "campaign: paper\n"
            "id                                      mapping     events"
            "      T(s)  MLL(ms)   imbal     PE wall(s)  status\n"
            "override=single-scalapack,mapping=HPROF HPROF       123456"
            "     3.717    1.916   0.099  0.325    1.50  ok\n");
}

// ---- execution + determinism ----------------------------------------------

// The contract the nightly job gates on: the same campaign, run with 1
// in-process worker, again with 1, and with 4, produces byte-identical
// roll-ups once the trailing "timing" section is stripped.
TEST(Campaign, RollupIsBitIdenticalAcrossWorkerCounts) {
  std::string error;
  const auto spec = parse_campaign(
      "Campaign [\n  name determinism\n" + std::string(kTinyBase) +
          "  sweep [\n"
          "    seed 2\n    seed 3\n"
          "    threads 0\n    threads 2\n"
          "  ]\n]",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->runs.size(), 4u);

  auto rollup = [&](std::int32_t workers) {
    CampaignExecOptions opts;
    opts.workers = workers;
    const CampaignOutcome outcome = run_campaign(*spec, opts);
    for (const RunRecord& rec : outcome.runs) {
      EXPECT_TRUE(rec.ok) << rec.id << ": " << rec.error;
    }
    return canonical_rollup(campaign_to_json(*spec, outcome));
  };

  const std::string serial = rollup(1);
  EXPECT_EQ(serial, rollup(1));
  EXPECT_EQ(serial, rollup(4));

  EXPECT_NE(serial.find("\"schema\": \"massf.campaign.v2\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"failed\": []"), std::string::npos);
}

// Failed runs are reported, not thrown: they land in the roll-up's failed
// list with their diagnostic and don't disturb sibling runs.
TEST(Campaign, FailedRunIsReportedInRollup) {
  std::string error;
  auto spec = parse_campaign(
      "Campaign [\n" + std::string(kTinyBase) +
          "  sweep [\n    seed 2\n    seed 3\n  ]\n]",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  // Sabotage one run post-parse: a fault aimed past the network.
  spec->runs[0].spec.options.faults.link_down(from_seconds(0.1), 99999);

  CampaignExecOptions opts;
  opts.workers = 2;
  const CampaignOutcome outcome = run_campaign(*spec, opts);
  ASSERT_EQ(outcome.runs.size(), 2u);
  EXPECT_FALSE(outcome.runs[0].ok);
  EXPECT_FALSE(outcome.runs[0].error.empty());
  EXPECT_TRUE(outcome.runs[1].ok) << outcome.runs[1].error;

  const std::string json = campaign_to_json(*spec, outcome);
  EXPECT_NE(json.find("\"failed\": [\"seed=2\"]"), std::string::npos) << json;
}

}  // namespace
}  // namespace massf
