// The declarative scenario format: strict line-numbered parsing, the x_
// forward-compatibility escape, to_dml/from_dml round trips, and the
// dotted-key override massf_cli --override merges over a file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario_config.hpp"

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
      {"Experiment [\n  executor_shards 2\n]",
       "line 2: unknown key 'executor_shards' in Experiment (prefix with x_ "
       "to ignore)"},
      {"Experiment [\n  routers 60\n  sync channel\n]",
       "line 3: unknown key 'sync' in Experiment (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n\n  app fortran\n]",
       "line 3: unknown app 'fortran' (scalapack|gridnpb|none)"},
      {"Experiment [ app warp_drive ]",
       "line 1: unknown app 'warp_drive' (scalapack|gridnpb|none)"},
      {"Experiment [\n  routers many\n]",
       "line 2: 'routers' wants an integer, got 'many'"},
      {"Experiment [\n  seconds fast\n]",
       "line 2: 'seconds' wants a number, got 'fast'"},
      {"Experiment [\n  mapping BEST\n]", "line 2: unknown mapping 'BEST'"},
      {"Experiment [\n  rebalance [ enabled 1 ]\n]",
       "line 2: unknown key 'rebalance' in Experiment (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n  background_flows [\n    fidelity packet\n  ]\n]",
       "line 3: unknown key 'fidelity' in background_flows [ ] (prefix with "
       "x_ to ignore)"},
      {"Experiment [\n  guard [\n    vigor 9\n  ]\n]",
       "line 3: unknown key 'vigor' in guard [ ] (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n  guard [\n    policy recover\n  ]\n]",
       "line 3: unknown key 'policy' in guard [ ] (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n  guard [\n    retries 1\n  ]\n]",
       "line 3: unknown key 'retries' in guard [ ] (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n  guard [\n    poll_s 0.1\n  ]\n]",
       "line 3: unknown key 'poll_s' in guard [ ] (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n  guard [\n    deadline_s 0\n  ]\n]",
       "line 3: 'deadline_s' must be > 0"},
      {"Experiment [\n  clients -1\n]", "line 2: 'clients' must be >= 0"},
      {"Experiment [\n  servers -1\n]", "line 2: 'servers' must be >= 0"},
      {"Experiment [\n  app_hosts -2\n]",
       "line 2: 'app_hosts' must be >= 0"},
      {"Experiment [\n  executor_threads -3\n]",
       "line 2: 'executor_threads' must be >= 0"},
      {"Experiment [\n  seconds 0\n]", "line 2: 'seconds' must be > 0"},
      {"Experiment [\n  profile_seconds -1\n]",
       "line 2: 'profile_seconds' must be > 0"},
      {"Experiment [\n  faults [\n    event \"at 1.0 warp link=3\"\n  ]\n]",
       "line 3: fault event: unknown event `warp`"},
      {"Experiment [\n  routers 1\n]", "line 2: 'routers' must be >= 2"},
      {"Experiment [ routers 0 ]", "line 1: 'routers' must be >= 2"},
      {"Other [ ]", "missing top-level Experiment [ ] block"},
      // Every number is read as 64 bits and checked against the range of
      // the field it lands in, so nothing wraps.
      {"Experiment [\n  routers 4294967298\n]",
       "line 2: 'routers' must be <= 2147483647"},
      {"Experiment [\n  engines 4294967297\n]",
       "line 2: 'engines' must be <= 2147483647"},
      {"Experiment [\n  hosts 4294967336\n]",
       "line 2: 'hosts' must be <= 2147483647"},
      {"Experiment [\n  clients 4294967295\n]",
       "line 2: 'clients' must be <= 2147483647"},
      {"Experiment [\n  seed 99999999999999999999\n]",
       "line 2: 'seed' must be <= 9223372036854775807"},
      {"Experiment [\n  engines 0\n]", "line 2: 'engines' must be >= 1"},
      {"Experiment [\n  hosts 0\n]", "line 2: 'hosts' must be >= 1"},
      {"Experiment [\n  think_time_s -1\n]",
       "line 2: 'think_time_s' must be > 0"},
      {"Experiment [\n  seconds 1e30\n]", "line 2: 'seconds' must be <= 1e+09"},
      {"Experiment [\n  load_bin_s -1\n]", "line 2: 'load_bin_s' must be >= 0"},
      {"Experiment [\n  multi_as 7\n]", "line 2: 'multi_as' must be <= 1"},
      {"Experiment [\n  seed -1\n]", "line 2: 'seed' must be >= 0"},
      {"Experiment [\n  guard [ enabled 2 ]\n]",
       "line 2: 'enabled' must be <= 1"},
      {"Experiment [\n  background_flows [ rate_cap_bps -1 ]\n]",
       "line 2: 'rate_cap_bps' must be >= 0"},
      {"Experiment [\n  background_flows [ rate_cap_bps inf ]\n]",
       "line 2: 'rate_cap_bps' must be <= 1.79769e+308"},
      {"Experiment [\n  think_time_s nan\n]",
       "line 2: 'think_time_s' wants a number, got 'nan'"},
      // Keys the format no longer has.
      {"Experiment [\n  faults [\n    file chaos-faults.txt\n  ]\n]",
       "line 3: unknown key 'file' in faults [ ] (prefix with x_ to "
       "ignore)"},
      {"Experiment [\n  file_mean_bytes 50000\n]",
       "line 2: unknown key 'file_mean_bytes' in Experiment (prefix with x_ "
       "to ignore)"},
      {"Experiment [\n  background_flows [ think_time_s 5 ]\n]",
       "line 2: unknown key 'think_time_s' in background_flows [ ] (prefix "
       "with x_ to ignore)"},
      {"Experiment [\n  background_flows [ mean_bytes 1e6 ]\n]",
       "line 2: unknown key 'mean_bytes' in background_flows [ ] (prefix "
       "with x_ to ignore)"},
      {"Experiment [\n  background_flows [ recompute_every 8 ]\n]",
       "line 2: unknown key 'recompute_every' in background_flows [ ] "
       "(prefix with x_ to ignore)"},
      {"Experiment [\n  background_flows [ stall_timeout_s 60 ]\n]",
       "line 2: unknown key 'stall_timeout_s' in background_flows [ ] "
       "(prefix with x_ to ignore)"},
      {"Experiment [\n  app ScaLapack\n]",
       "line 2: unknown app 'ScaLapack' (scalapack|gridnpb|none)"},
      {"Experiment [\n  app GridNPB\n]",
       "line 2: unknown app 'GridNPB' (scalapack|gridnpb|none)"},
      {"Experiment [\n  link_model fluid\n]",
       "line 2: unknown link_model 'fluid' (packet|hybrid)"},
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
      "  guard [ x_alpha 2  enabled 1 ]\n"
      "]");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->options.num_routers, 60);
  EXPECT_TRUE(spec->options.guard.enabled);
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
  EXPECT_EQ(spec->options.num_engines, defaults.num_engines);
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
  ScenarioOptions& o = spec.options;
  o.multi_as = true;
  o.num_routers = 1234;
  o.num_hosts = 567;
  o.num_as = 17;
  o.num_clients = 89;
  o.num_servers = 12;
  o.num_app_hosts = 21;
  o.num_engines = 33;
  o.end_time = from_seconds(7.5);
  o.profile_end_time = from_seconds(2.25);
  o.http.think_time_mean_s = 0.75;
  o.seed = 99;
  o.executor_threads = 2;
  o.app = AppKind::kGridNpb;
  o.guard.enabled = true;
  o.guard.stall_deadline_s = 12.5;
  o.guard.dump_path = "stall.json";
  spec.mappings = {MappingKind::kTop2, MappingKind::kHProf};
  o.faults.link_down(seconds(1), 3).link_up(seconds(2), 3);

  const std::string text1 = write_dml(scenario_spec_to_dml(spec));
  std::string error;
  const auto reparsed = parse_scenario(text1, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  const std::string text2 = write_dml(scenario_spec_to_dml(*reparsed));
  EXPECT_EQ(text1, text2);

  EXPECT_EQ(reparsed->name, "fixture");
  const ScenarioOptions& back = reparsed->options;
  EXPECT_TRUE(back.multi_as);
  EXPECT_EQ(back.num_routers, 1234);
  EXPECT_EQ(back.num_hosts, 567);
  EXPECT_EQ(back.num_as, 17);
  EXPECT_EQ(back.num_clients, 89);
  EXPECT_EQ(back.num_servers, 12);
  EXPECT_EQ(back.app, AppKind::kGridNpb);
  EXPECT_EQ(back.num_app_hosts, 21);
  EXPECT_EQ(back.num_engines, 33);
  EXPECT_EQ(back.end_time, o.end_time);
  EXPECT_EQ(back.profile_end_time, o.profile_end_time);
  EXPECT_DOUBLE_EQ(back.http.think_time_mean_s, 0.75);
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.executor_threads, 2);
  EXPECT_TRUE(back.guard.enabled);
  EXPECT_DOUBLE_EQ(back.guard.stall_deadline_s, 12.5);
  EXPECT_EQ(back.guard.dump_path, "stall.json");
  EXPECT_EQ(reparsed->mappings,
            (std::vector<MappingKind>{MappingKind::kTop2,
                                      MappingKind::kHProf}));
  EXPECT_EQ(back.faults.size(), 2u);
}

// (block, key) for every atom of the Experiment block and of its
// sub-blocks; block "" is the Experiment level.
std::set<std::pair<std::string, std::string>> experiment_keys(
    const DmlNode& root) {
  std::set<std::pair<std::string, std::string>> keys;
  const DmlNode* e = root.find("Experiment");
  EXPECT_NE(e, nullptr);
  if (e == nullptr) return keys;
  for (const DmlAttribute& a : e->attributes) {
    if (!a.child) {
      keys.insert({"", a.key});
      continue;
    }
    for (const DmlAttribute& b : a.child->attributes) {
      keys.insert({a.key, b.key});
    }
  }
  return keys;
}

// A file that sets every key parses, and the keys it sets are exactly the
// ones scenario_spec_to_dml emits: nothing is emitted that a file cannot
// set, and nothing parses that the template omits. The format has 24 keys.
TEST(ScenarioSpec, EverySchemaKeyParses) {
  const std::string text =
      "Experiment [\n"
      "  name all\n  multi_as 0\n  routers 60\n  hosts 40\n  as 4\n"
      "  clients 10\n  servers 4\n  app none\n  app_hosts 4\n  engines 4\n"
      "  seconds 1\n  profile_seconds 0.3\n  think_time_s 1.0\n"
      "  executor_threads 2\n"
      "  load_bin_s 0.5\n  seed 9\n  link_model hybrid\n  mapping TOP\n"
      "  background_flows [ sources 6  rate_cap_bps 1e7 ]\n"
      "  guard [ enabled 1  deadline_s 5  dump g.json ]\n"
      "  faults [ event \"at 0.5 link_down link=1\" ]\n"
      "]";
  std::string error;
  const auto spec = parse_scenario(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;

  const auto written = experiment_keys(*parse_dml(text));
  const auto emitted = experiment_keys(scenario_spec_to_dml(*spec));
  EXPECT_EQ(written.size(), 24u);
  for (const auto& [block, key] : emitted) {
    EXPECT_TRUE(written.count({block, key}))
        << block << "." << key << " is emitted but the text does not set it";
  }
  for (const auto& [block, key] : written) {
    EXPECT_TRUE(emitted.count({block, key}))
        << block << "." << key << " parses but is never emitted";
  }
}

// ---- overrides -------------------------------------------------------------
//
// massf_cli --config=<file> --override=<text>: `base` is written to a
// scratch file and loaded with the override merged over it. The file is
// named after the running test, so cases that ctest runs concurrently
// never share one.
std::optional<ScenarioSpec> load_overridden(const std::string& base,
                                            const std::string& override_text,
                                            std::string* error) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/override-base-" +
                           test->test_suite_name() + "-" + test->name() +
                           ".dml";
  {
    std::ofstream out(path);
    out << base;
  }
  auto spec = load_scenario_file(path, error, override_text);
  std::remove(path.c_str());
  return spec;
}

constexpr const char* kOverrideBase =
    "Experiment [\n"
    "  routers 60\n"
    "  mapping HTOP\n"
    "  guard [ enabled 1  deadline_s 20 ]\n"
    "  faults [ event \"at 1.0 link_down link=3\" ]\n"
    "]";

// An override changes the keys it names, creating the sub-block the file
// lacks (background_flows); every other atom keeps the file's value, also
// inside a sub-block the override writes into (guard).
TEST(ScenarioSpec, FlagsOverrideFileOnlyWhenSet) {
  std::string error;
  const auto spec = load_overridden(
      kOverrideBase,
      "guard.dump stall.json  seed 7  background_flows.sources 16\n"
      "background_flows.rate_cap_bps 5e6",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->options.guard.dump_path, "stall.json");
  EXPECT_EQ(spec->options.seed, 7u);
  EXPECT_EQ(spec->options.num_bg_sources, 16);
  EXPECT_DOUBLE_EQ(spec->options.netsim.link_model.fluid_flow_rate_cap_bps,
                   5e6);

  EXPECT_TRUE(spec->options.guard.enabled);
  EXPECT_DOUBLE_EQ(spec->options.guard.stall_deadline_s, 20.0);
  EXPECT_EQ(spec->options.num_routers, 60);
  EXPECT_EQ(spec->mappings, std::vector<MappingKind>{MappingKind::kHTop});
  EXPECT_EQ(spec->options.faults.size(), 1u);
}

// Repeated atoms of one key in one override replace the file's atoms for
// that key together, so a repeated `mapping` is the new run list.
TEST(ScenarioSpec, MappingFlagReplacesRunList) {
  std::string error;
  const auto spec = load_overridden(kOverrideBase,
                                    "mapping TOP2 mapping HPROF", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->mappings,
            (std::vector<MappingKind>{MappingKind::kTop2,
                                      MappingKind::kHProf}));

  EXPECT_FALSE(load_overridden(kOverrideBase, "mapping WARP", &error));
  EXPECT_EQ(error, "--override: unknown mapping 'WARP'");
}

// Override values go through the strict parser, so a bad one gets the
// parser's own message — naming the override and without a line, since
// the override is not part of the file.
TEST(ScenarioSpec, OverrideBadValueGivesParserMessage) {
  const struct {
    const char* override_text;
    const char* error;
  } kCases[] = {
      {"guard.deadline_s 0", "'deadline_s' must be > 0"},
      {"routers many", "'routers' wants an integer, got 'many'"},
      {"warp_drive 1",
       "unknown key 'warp_drive' in Experiment (prefix with x_ to ignore)"},
      {"rebalance.enabled 1",
       "unknown key 'rebalance' in Experiment (prefix with x_ to ignore)"},
      {"guard.vigor 9",
       "unknown key 'vigor' in guard [ ] (prefix with x_ to ignore)"},
      {"guard.policy recover",
       "unknown key 'policy' in guard [ ] (prefix with x_ to ignore)"},
      {"guard.retries 2",
       "unknown key 'retries' in guard [ ] (prefix with x_ to ignore)"},
      {"guard.poll_s 0.1",
       "unknown key 'poll_s' in guard [ ] (prefix with x_ to ignore)"},
      {"clients -1", "'clients' must be >= 0"},
      {"executor_threads -3", "'executor_threads' must be >= 0"},
      {"routers 4294967298", "'routers' must be <= 2147483647"},
      {"seconds 1e30", "'seconds' must be <= 1e+09"},
      {"faults.file chaos-faults.txt",
       "unknown key 'file' in faults [ ] (prefix with x_ to ignore)"},
      {"file_mean_bytes 50000",
       "unknown key 'file_mean_bytes' in Experiment (prefix with x_ to "
       "ignore)"},
      {"background_flows.recompute_every 8",
       "unknown key 'recompute_every' in background_flows [ ] (prefix with "
       "x_ to ignore)"},
      {"guard [ enabled 0 ]",
       "override entries must be scalar (use dotted keys for sub-blocks)"},
  };
  for (const auto& c : kCases) {
    std::string error;
    EXPECT_FALSE(load_overridden(kOverrideBase, c.override_text, &error))
        << c.override_text;
    EXPECT_EQ(error, std::string("--override: ") + c.error)
        << c.override_text;
  }
}

// A file's own error names the file, as massf_cli prints it; the file is
// checked before the override, so its error wins.
TEST(ScenarioSpec, LoadErrorNamesTheFileOrTheOverride) {
  const std::string missing = ::testing::TempDir() + "/no-such-scenario.dml";
  std::string error;
  EXPECT_FALSE(load_scenario_file(missing, &error, "routers 60"));
  EXPECT_EQ(error, missing + ": cannot open '" + missing + "'");

  EXPECT_FALSE(load_overridden("Experiment [\n  routers 1\n]",
                               "routers 60", &error));
  EXPECT_TRUE(error.starts_with(::testing::TempDir())) << error;
  EXPECT_TRUE(error.ends_with(".dml: line 2: 'routers' must be >= 2"))
      << error;
}

}  // namespace
}  // namespace massf
