// Supervision subsystem (src/guard, DESIGN.md section 5h): the liveness
// watchdog, the structured error taxonomy, and recovery by re-running.
//
// The headline property: a run that *stalls* (here: a test-injected frozen
// channel clock) is cancelled by the watchdog and re-run from t = 0 on the
// sequential executor, and the re-run must still produce the exact golden
// trace checksum (807988445054369792) that pdes_golden_test.cpp and
// BENCH_pdes.json pin for uninterrupted runs; a stalled scenario run must
// recover to exactly the unguarded sequential result. Recovery is allowed
// to change who waits on whom, never what happens.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.hpp"
#include "corpus_shrink.hpp"
#include "guard/options.hpp"
#include "guard/watchdog.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "pdes/golden_ring.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/error.hpp"

#ifndef MASSF_SCENARIO_DIR
#error "MASSF_SCENARIO_DIR must point at the repo's scenarios/ directory"
#endif

namespace massf {
namespace {

// ---- error taxonomy ---------------------------------------------------------

TEST(EngineErrorTaxonomy, CarriesCategoryLocationAndMessage) {
  try {
    MASSF_THROW(ErrorCategory::kTopology, "test boom");
    FAIL() << "MASSF_THROW did not throw";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTopology);
    const std::string what = e.what();
    EXPECT_NE(what.find("topology"), std::string::npos) << what;
    EXPECT_NE(what.find("test boom"), std::string::npos) << what;
    EXPECT_NE(what.find("guard_test.cpp"), std::string::npos) << what;
    EXPECT_GT(e.line(), 0);
  }
}

TEST(EngineErrorTaxonomy, EnforcePassesAndThrows) {
  EXPECT_NO_THROW(MASSF_ENFORCE(1 + 1 == 2, ErrorCategory::kInternal, "no"));
  EXPECT_THROW(MASSF_ENFORCE(false, ErrorCategory::kConfig, "yes"),
               EngineError);
}

TEST(EngineErrorTaxonomy, CategoryNamesAreStable) {
  EXPECT_STREQ(error_category_name(ErrorCategory::kConfig), "config");
  EXPECT_STREQ(error_category_name(ErrorCategory::kTopology), "topology");
  EXPECT_STREQ(error_category_name(ErrorCategory::kInternal), "internal");
}

// ---- shared workload --------------------------------------------------------

// The golden ring (pdes/golden_ring.hpp) with the watchdog's telemetry on.
EngineOptions guarded_options(double deadline_s, const std::string& dump) {
  EngineOptions o = golden_ring_options();
  o.guard.enabled = true;
  o.guard.stall_deadline_s = deadline_s;
  o.guard.dump_path = dump;
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Minimal well-formedness check over the dump: every brace/bracket opened
// outside a string literal is closed, and the document is one object.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && s.find('{') != std::string::npos;
}

// ---- watchdog ---------------------------------------------------------------

// A healthy run never trips the watchdog, however long it runs.
TEST(Watchdog, StaysQuietOnHealthyRun) {
  EngineOptions o = guarded_options(/*deadline_s=*/10.0, /*dump=*/"");
  GoldenRing ring = build_golden_ring(o, /*lps=*/4, /*chain=*/4, /*hops=*/200);
  guard::Watchdog watchdog(*ring.engine, o.guard);
  watchdog.arm();
  const RunStats stats = ring.engine->run_threaded(2);
  watchdog.disarm();
  EXPECT_FALSE(watchdog.fired());
  EXPECT_FALSE(ring.engine->run_cancelled());
  EXPECT_GT(stats.total_events, 0u);
  EXPECT_TRUE(watchdog.last_diagnostic().empty());
}

// Freeze one LP's channel clock mid-run: the watchdog must detect the
// stall within the deadline, emit a parseable massf.guard.v1 dump, and
// cancel the run instead of hanging it.
TEST(Watchdog, FiresOnFrozenLpClockAndWritesDump) {
  const std::string dump = ::testing::TempDir() + "/massf_guard_dump.json";
  std::remove(dump.c_str());

  EngineOptions o = guarded_options(/*deadline_s=*/0.25, dump);
  GoldenRing ring =
      build_golden_ring(o, /*lps=*/4, /*chain=*/4, /*hops=*/200000);
  ring.engine->test_freeze_lp_clock(/*lp=*/2, /*after_windows=*/5);

  obs::Registry registry;
  guard::Watchdog watchdog(*ring.engine, o.guard, &registry);
  watchdog.arm();
  const RunStats stats = ring.engine->run_threaded(2);
  watchdog.disarm();

  EXPECT_TRUE(watchdog.fired());
  EXPECT_TRUE(ring.engine->run_cancelled());
  // The run was cancelled well before its 3.6e6-window horizon.
  EXPECT_LT(stats.num_windows, 100u);
  EXPECT_EQ(registry.counter("guard.stalls_detected").value(), 1u);
  EXPECT_EQ(registry.counter("guard.dump_writes").value(), 1u);

  const std::string body = read_file(dump);
  ASSERT_FALSE(body.empty()) << "dump file missing: " << dump;
  EXPECT_TRUE(json_balanced(body)) << body;
  EXPECT_NE(body.find("\"schema\": \"massf.guard.v1\""), std::string::npos);
  EXPECT_NE(body.find("\"reason\": \"no-progress\""), std::string::npos);
  // Per-LP liveness rows: the frozen LP is listed with its channel clock.
  EXPECT_NE(body.find("\"lp\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(body.find("\"in_degree\""), std::string::npos);
  EXPECT_EQ(watchdog.last_diagnostic(), body.substr(0, body.size() - 1));
}

// render_diagnostic is usable as a one-shot state dump on an idle engine.
TEST(Watchdog, RenderDiagnosticOnIdleEngineIsWellFormed) {
  EngineOptions o = guarded_options(/*deadline_s=*/1.0, /*dump=*/"");
  GoldenRing ring = build_golden_ring(o, /*lps=*/3, /*chain=*/0, /*hops=*/1);
  const std::string json =
      guard::Watchdog::render_diagnostic(*ring.engine, 0.0, 1.0);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("massf.guard.v1"), std::string::npos);
  // Telemetry cells are allocated by the run itself; pre-run every LP row
  // renders with zeroed liveness but the row must still be present.
  EXPECT_NE(json.find("\"lp\": 2"), std::string::npos);
}

// ---- end-to-end recovery ----------------------------------------------------

// The headline: the golden ring on the threaded executor, one LP's clock
// frozen at window 1000. The watchdog cancels the stalled run; a freshly
// built ring re-run from t = 0 on the sequential executor — which ignores
// the freeze — must finish with the same checksum, event count, and window
// count as an uninterrupted run.
TEST(GuardedRun, RecoversFrozenChannelRunToGoldenChecksum) {
  const std::string dump = ::testing::TempDir() + "/massf_guard_golden.json";
  std::remove(dump.c_str());
  const EngineOptions o = guarded_options(/*deadline_s=*/0.3, dump);
  obs::Registry registry;

  GoldenRing frozen = build_golden_ring(o);
  frozen.engine->test_freeze_lp_clock(/*lp=*/3, /*after_windows=*/1000);
  {
    guard::Watchdog watchdog(*frozen.engine, o.guard, &registry);
    watchdog.arm();
    const RunStats stats = frozen.engine->run_threaded(2);
    watchdog.disarm();
    EXPECT_TRUE(watchdog.fired());
    EXPECT_LT(stats.num_windows, kGoldenRingWindows);
  }
  ASSERT_TRUE(frozen.engine->run_cancelled());
  EXPECT_EQ(registry.counter("guard.stalls_detected").value(), 1u);
  EXPECT_EQ(registry.counter("guard.dump_writes").value(), 1u);

  GoldenRing fresh = build_golden_ring(o);
  fresh.engine->test_freeze_lp_clock(/*lp=*/3, /*after_windows=*/1000);
  guard::Watchdog watchdog(*fresh.engine, o.guard, &registry);
  watchdog.arm();
  const RunStats stats = fresh.engine->run();
  watchdog.disarm();
  EXPECT_FALSE(watchdog.fired());
  EXPECT_FALSE(fresh.engine->run_cancelled());
  EXPECT_EQ(fresh.checksum(), kGoldenRingChecksum);
  EXPECT_EQ(stats.total_events, kGoldenRingEvents);
  EXPECT_EQ(stats.num_windows, kGoldenRingWindows);
  EXPECT_EQ(registry.counter("guard.stalls_detected").value(), 1u);

  const std::string body = read_file(dump);
  ASSERT_FALSE(body.empty());
  EXPECT_TRUE(json_balanced(body)) << body;
  EXPECT_NE(body.find("massf.guard.v1"), std::string::npos);
}

// ---- supervised scenario recovery --------------------------------------------

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// One-step recovery through a real stall: bgp-chaos.dml, shrunk, on two
// threads with LP 3's clock frozen. The watchdog cancels the wedged run,
// run_mapping re-runs it once on the sequential executor (which the freeze
// cannot stall), and the re-run equals an unguarded sequential one. Two
// freezes: after 100 windows, and inside the crash→restore outage
// (0.9–2.2 s) where the cancelled run leaves router 3 crashed, the AS 0 –
// AS 1 session down and link 0 flapped down. A fresh injector, fresh
// speakers and the restored forwarding plane must leave nothing of the
// cancelled run behind.
TEST(GuardedScenario, InjectedStallRecoversToTheSequentialResult) {
  const std::string path = std::string(MASSF_SCENARIO_DIR) + "/bgp-chaos.dml";
  const std::string scratch = ::testing::TempDir() + "guarded-bgp-chaos";
  struct Outcome {
    ExperimentResult result;
    int runs = 0;               ///< Scenario::run calls (pre_run count)
    std::int32_t threads = 0;   ///< executor_threads after run_mapping
  };
  // Runs the shrunk file; `freeze_after` > 0 freezes LP 3 after that many
  // windows on every run. `floors` gets the first run's window floors,
  // recorded by a barrier hook that changes nothing.
  const auto run = [&](const std::string& override_text,
                       std::uint64_t freeze_after, std::vector<SimTime>* floors,
                       obs::Registry& registry) {
    std::string error;
    const auto loaded = load_scenario_file(path, &error, override_text);
    EXPECT_TRUE(loaded.has_value()) << error;
    const ScenarioSpec spec = shrink(loaded.value(), scratch, seconds(3));
    ScenarioOptions opts = spec.options;
    opts.registry = &registry;
    Scenario scenario(opts);
    Outcome out;
    scenario.set_pre_run([&](Engine& engine, NetSim&) {
      if (freeze_after > 0) engine.test_freeze_lp_clock(3, freeze_after);
      if (out.runs++ == 0) {
        engine.hooks().barrier.push_back(
            [floors](Engine&, SimTime floor) { floors->push_back(floor); });
      }
    });
    out.result = run_mapping(scenario, spec.mappings.front());
    out.threads = scenario.options().executor_threads;
    return out;
  };

  obs::Registry want_registry;
  std::vector<SimTime> want_floors;
  const Outcome want =
      run("executor_threads 0", 0, &want_floors, want_registry);
  EXPECT_EQ(want.runs, 1);
  ASSERT_EQ(want_floors.size(), want.result.stats.num_windows);

  // Both executors open the same windows, so the unguarded run's floors
  // say which window count stalls the threaded run at 1.25 s: the crash
  // (0.9 s), the session reset (1.0–1.5 s) and the first flap (1.2–1.35 s)
  // are all in effect there.
  std::uint64_t outage_window = 0;
  while (outage_window < want_floors.size() &&
         want_floors[outage_window] < from_seconds(1.25)) {
    ++outage_window;
  }
  ASSERT_LT(outage_window, want_floors.size());

  // Canonical metrics minus guard.* (timing_metric_excludes drops it) and
  // the worker count itself.
  std::vector<std::string_view> excludes(timing_metric_excludes().begin(),
                                         timing_metric_excludes().end());
  excludes.push_back("pdes.sched.threads");

  for (const std::uint64_t freeze_after : {std::uint64_t{100}, outage_window}) {
    SCOPED_TRACE("freeze after " + std::to_string(freeze_after) + " windows");
    obs::Registry got_registry;
    std::vector<SimTime> frozen_floors;
    const Outcome got =
        run("executor_threads 2 guard.enabled 1 guard.deadline_s 0.5",
            freeze_after, &frozen_floors, got_registry);

    // One stall, one sequential re-run, and the configured thread count
    // back for the next mapping.
    EXPECT_EQ(got_registry.counter("guard.stalls_detected").value(), 1u);
    EXPECT_EQ(got.runs, 2);
    EXPECT_EQ(got.threads, 2);
    // The frozen run stalled in the window the freeze names.
    ASSERT_EQ(frozen_floors.size(), freeze_after + 1);
    if (freeze_after == outage_window) {
      EXPECT_GT(frozen_floors.back(), from_seconds(0.9));
      EXPECT_LT(frozen_floors.back(), from_seconds(2.2));
    }
    EXPECT_EQ(got.result.stats.total_events, want.result.stats.total_events);
    EXPECT_EQ(got.result.stats.num_windows, want.result.stats.num_windows);
    EXPECT_EQ(double_bits(got.result.metrics.simulation_time_s),
              double_bits(want.result.metrics.simulation_time_s));
    EXPECT_EQ(obs::to_json_excluding(got_registry, excludes),
              obs::to_json_excluding(want_registry, excludes));
  }
}

}  // namespace
}  // namespace massf
