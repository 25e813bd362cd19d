// Supervision subsystem (src/guard, DESIGN.md section 5h): the liveness
// watchdog, the structured error taxonomy, and auto-recovery by re-running.
//
// The headline property: a run that *stalls* (here: a test-injected frozen
// channel clock) and is recovered by GuardedRun — re-run from t = 0,
// degraded to the sequential executor — must still produce the exact
// golden trace checksum (807988445054369792) that pdes_golden_test.cpp and
// BENCH_pdes.json pin for uninterrupted runs, and a stalled scenario run
// must recover to exactly the unguarded sequential result. Recovery is
// allowed to change who waits on whom, never what happens.
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
#include "guard/guarded_run.hpp"
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
  EXPECT_STREQ(error_category_name(ErrorCategory::kProtocolStall),
               "protocol-stall");
  EXPECT_STREQ(error_category_name(ErrorCategory::kInternal), "internal");
}

// ---- shared workload --------------------------------------------------------

// The golden ring (pdes/golden_ring.hpp) with the watchdog's telemetry on.
EngineOptions guarded_options(double deadline_s, const std::string& dump) {
  EngineOptions o = golden_ring_options();
  o.guard.enabled = true;
  o.guard.stall_deadline_s = deadline_s;
  o.guard.poll_interval_s = 0.02;
  o.guard.dump_path = dump;
  o.guard.on_stall = guard::OnStall::kCancel;
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
// stall within the deadline, emit a parseable massf.guard.v1 dump, and —
// under the kCancel policy — unwind the run instead of hanging it.
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

// ---- degradation ladder (no engine involved) --------------------------------

TEST(GuardedRunLadder, WalksRetryThenSequential) {
  obs::Registry registry;
  guard::GuardedRun::Options opts;
  opts.max_retries = 1;
  guard::GuardedRun runner(opts, &registry);

  std::vector<guard::AttemptPlan> plans;
  const guard::GuardedRunReport report =
      runner.run(4, [&](const guard::AttemptPlan& plan) {
        plans.push_back(plan);
        return guard::AttemptOutcome{guard::AttemptStatus::kStalled, "frozen"};
      });

  // rung 0 twice (1 + max_retries), then one thread.
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_EQ(plans[0].threads, 4);
  EXPECT_EQ(plans[0].rung, 0);
  EXPECT_EQ(plans[0].attempt, 0);
  EXPECT_EQ(plans[1].threads, 4);
  EXPECT_EQ(plans[1].rung, 0);
  EXPECT_EQ(plans[1].attempt, 1);
  EXPECT_EQ(plans[2].threads, 1);
  EXPECT_EQ(plans[2].rung, 1);
  EXPECT_EQ(plans[2].attempt, 2);

  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.stalls, 3u);
  EXPECT_EQ(report.degraded_rung, -1);
  EXPECT_EQ(registry.counter("guard.retries").value(), 2u);
  EXPECT_EQ(registry.gauge("guard.degraded_mode").value(), -1.0);
}

TEST(GuardedRunLadder, SequentialRequestHasNoDegradationRungs) {
  guard::GuardedRun runner({}, nullptr);
  int calls = 0;
  const guard::GuardedRunReport report =
      runner.run(0, [&](const guard::AttemptPlan&) {
        ++calls;
        return guard::AttemptOutcome{guard::AttemptStatus::kFailed, "boom"};
      });
  EXPECT_EQ(calls, 2);  // 1 + default max_retries, nothing to degrade to
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.errors, 2u);
  EXPECT_EQ(report.last_error, "boom");
}

TEST(GuardedRunLadder, FirstTryCompletionIsNotARecovery) {
  obs::Registry registry;
  guard::GuardedRun runner({}, &registry);
  const guard::GuardedRunReport report =
      runner.run(2, [](const guard::AttemptPlan&) {
        return guard::AttemptOutcome{};
      });
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.degraded_rung, 0);
  EXPECT_EQ(registry.counter("guard.recoveries").value(), 0u);
  EXPECT_EQ(registry.counter("guard.retries").value(), 0u);
  EXPECT_EQ(registry.gauge("guard.degraded_mode").value(), 0.0);
}

// ---- end-to-end recovery ----------------------------------------------------

// The headline: the golden ring on the threaded executor, one LP's clock
// frozen at window 1000. The watchdog cancels the stalled attempt;
// GuardedRun re-runs a freshly built ring from t = 0 on the sequential
// fallback — which ignores the freeze — and the run must finish with the
// same checksum, event count, and window count as an uninterrupted run.
TEST(GuardedRun, RecoversFrozenChannelRunToGoldenChecksum) {
  const std::string dump = ::testing::TempDir() + "/massf_guard_golden.json";
  std::remove(dump.c_str());

  obs::Registry registry;
  std::uint64_t checksum = 0;
  RunStats final_stats;

  auto attempt = [&](const guard::AttemptPlan& plan) -> guard::AttemptOutcome {
    EngineOptions o = guarded_options(/*deadline_s=*/0.3, dump);
    GoldenRing ring = build_golden_ring(o);
    Engine* eng = ring.engine.get();
    // Armed on every attempt: the sequential fallback ignores the freeze
    // and runs clean — exactly the degradation contract.
    eng->test_freeze_lp_clock(/*lp=*/3, /*after_windows=*/1000);

    guard::Watchdog watchdog(*eng, o.guard, &registry);
    watchdog.arm();
    const RunStats stats = plan.threads > 0
                               ? eng->run_threaded(plan.threads)
                               : eng->run();
    watchdog.disarm();
    if (eng->run_cancelled()) {
      return {guard::AttemptStatus::kStalled, watchdog.last_diagnostic()};
    }
    checksum = ring.checksum();
    final_stats = stats;
    return {};
  };

  guard::GuardedRun::Options opts;
  opts.max_retries = 0;  // straight to the sequential fallback after the stall
  guard::GuardedRun runner(opts, &registry);
  const guard::GuardedRunReport report = runner.run(2, attempt);

  ASSERT_TRUE(report.completed) << report.last_error;
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.stalls, 1u);
  EXPECT_EQ(report.degraded_rung, 1);

  EXPECT_EQ(checksum, kGoldenRingChecksum);
  EXPECT_EQ(final_stats.total_events, kGoldenRingEvents);
  EXPECT_EQ(final_stats.num_windows, kGoldenRingWindows);

  EXPECT_GE(registry.counter("guard.stalls_detected").value(), 1u);
  EXPECT_GE(registry.counter("guard.dump_writes").value(), 1u);
  EXPECT_EQ(registry.counter("guard.retries").value(), 1u);
  EXPECT_EQ(registry.counter("guard.recoveries").value(), 1u);
  EXPECT_EQ(registry.gauge("guard.degraded_mode").value(), 1.0);

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

// GuardedRun's ladder through a real stall: bgp-chaos.dml, shrunk, on two
// threads with LP 3's clock frozen. The watchdog cancels the wedged
// attempt, `retries 0` sends the ladder straight to rung 1 (one thread,
// which the freeze cannot stall), and the re-run equals an unguarded
// sequential one. Two freezes: after 100 windows, and inside the
// crash→restore outage (0.9–2.2 s) where the first attempt leaves router 3
// crashed, the AS 0 – AS 1 session down and link 0 flapped down. A fresh
// injector, fresh speakers and the restored forwarding plane must leave
// nothing of the cancelled attempt behind.
TEST(GuardedScenario, InjectedStallRecoversToTheSequentialResult) {
  const std::string path = std::string(MASSF_SCENARIO_DIR) + "/bgp-chaos.dml";
  const std::string scratch = ::testing::TempDir() + "guarded-bgp-chaos";
  // Runs the shrunk file; `freeze_after` > 0 freezes LP 3 after that many
  // windows on every attempt. `floors` gets the first attempt's window
  // floors, recorded by a barrier hook that changes nothing.
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
    bool first = true;
    scenario.set_pre_run([&](Engine& engine, NetSim&) {
      if (freeze_after > 0) engine.test_freeze_lp_clock(3, freeze_after);
      if (first) {
        engine.hooks().barrier.push_back(
            [floors](Engine&, SimTime floor) { floors->push_back(floor); });
      }
      first = false;
    });
    return run_mapping(scenario, spec, spec.mappings.front(), &registry);
  };

  obs::Registry want_registry;
  std::vector<SimTime> want_floors;
  const MappingRun want =
      run("executor_threads 0", 0, &want_floors, want_registry);
  ASSERT_TRUE(want.result.has_value());
  EXPECT_EQ(want.guard.attempts, 0);  // unsupervised
  ASSERT_EQ(want_floors.size(), want.result->stats.num_windows);

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
    const MappingRun got =
        run("executor_threads 2 guard.enabled 1 guard.deadline_s 0.5 "
            "guard.policy recover guard.retries 0",
            freeze_after, &frozen_floors, got_registry);

    ASSERT_TRUE(got.result.has_value()) << got.guard.last_error;
    EXPECT_TRUE(got.guard.completed);
    EXPECT_EQ(got.guard.attempts, 2);
    EXPECT_EQ(got.guard.stalls, 1u);
    EXPECT_EQ(got.guard.degraded_rung, 1);
    // The frozen attempt stalled in the window the freeze names.
    ASSERT_EQ(frozen_floors.size(), freeze_after + 1);
    if (freeze_after == outage_window) {
      EXPECT_GT(frozen_floors.back(), from_seconds(0.9));
      EXPECT_LT(frozen_floors.back(), from_seconds(2.2));
    }
    EXPECT_EQ(got.result->stats.total_events,
              want.result->stats.total_events);
    EXPECT_EQ(got.result->stats.num_windows, want.result->stats.num_windows);
    EXPECT_EQ(double_bits(got.result->metrics.simulation_time_s),
              double_bits(want.result->metrics.simulation_time_s));
    EXPECT_EQ(obs::to_json_excluding(got_registry, excludes),
              obs::to_json_excluding(want_registry, excludes));
  }
}

}  // namespace
}  // namespace massf
