// The experiment driver: runs a complete load-balance study from a
// declarative scenario file.
//
//   ./massf_cli --template            # print a scenario template and exit
//   ./massf_cli --config=exp.dml [--mapping=HPROF,TOP2]
//   ./massf_cli --help                # the full flag table
//
// The scenario file (sim/scenario_config.hpp) describes the whole
// experiment — topology scale, traffic mix, fault schedule, rebalance /
// checkpoint / guard policy, mapping run list. Every run-control flag
// below maps onto a scenario atom (the shared declaration lives in
// add_run_control_flags); flags the user explicitly passes override the
// file. Validation errors carry the argv position ("arg N
// (--flag=value): what") and exit 2.
//
// Checkpoint/restore (format massf.ckpt.v1, DESIGN.md section 5e):
//   --ckpt-every=N --ckpt-path=f.ckpt [--ckpt-stop]   # snapshot every N
//   --restore=f.ckpt                                  # resume from snapshot
// Both require exactly one mapping: a checkpoint captures one run, and a
// restored run must rebuild the identical stack before loading it.
//
// Fault injection: embed a faults [ ] block in the scenario, or pass
// --faults=schedule.txt (the line-based format of fault/fault.hpp).
//
// Online rebalancing (DESIGN.md section 5f): --rebalance enables the LP
// migration controller; --rebalance-threshold / --rebalance-every /
// --rebalance-sustain / --rebalance-max-moves tune it.
//
// Supervised runs (DESIGN.md section 5h): --guard arms a liveness watchdog
// over every measured run; on a no-progress deadline it dumps a stall
// diagnostic (--guard-dump) and, under --guard-policy=recover, cancels the
// run and retries down the degradation ladder — restoring the latest
// checkpoint when --ckpt-every/--ckpt-path are armed.
#include <cstdio>
#include <fstream>
#include <memory>

#include "fault/injector.hpp"
#include "guard/guarded_run.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"

namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace massf;

  FlagTable flags("massf_cli",
                  "Runs a load-balance study from a scenario file.");
  flags.add_bool("template", false,
                 "print a scenario file template and exit");
  flags.add_string("config", "", "scenario DML file");
  add_run_control_flags(flags);
  flags.parse_or_exit(argc, argv);

  if (flags.get_bool("template")) {
    ScenarioSpec defaults;
    defaults.name = "template";
    defaults.options.app = AppKind::kScaLapack;
    std::fputs(write_dml(scenario_spec_to_dml(defaults)).c_str(), stdout);
    return 0;
  }

  ScenarioSpec spec;
  if (flags.set("config")) {
    std::string error;
    const auto parsed = load_scenario_file(flags.get_string("config"), &error);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", flags.get_string("config").c_str(),
                   error.c_str());
      return 1;
    }
    spec = *parsed;
  } else {
    std::fprintf(stderr,
                 "no --config given; using built-in defaults "
                 "(print one with --template)\n");
    spec.options.num_routers = 800;
    spec.options.num_hosts = 400;
    spec.options.num_clients = 120;
    spec.options.num_servers = 30;
    spec.options.num_engines = 12;
    spec.options.end_time = seconds(5);
    spec.options.app = AppKind::kScaLapack;
    // The historical CLI default study: the four headline mappings.
    spec.mappings = {MappingKind::kHProf, MappingKind::kProf2,
                     MappingKind::kHTop, MappingKind::kTop2};
  }

  std::string error;
  if (!apply_run_control_flags(flags, &spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  ScenarioOptions& opts = spec.options;
  if ((opts.ckpt.every_windows > 0 || !opts.ckpt.restore_path.empty()) &&
      spec.mappings.size() != 1) {
    std::fprintf(stderr,
                 "checkpoint/restore requires exactly one mapping "
                 "(a snapshot captures a single run)\n");
    return 1;
  }

  std::printf("experiment: %s, %d routers, %d hosts, %d engines, app=%s, "
              "%.1f virtual seconds\n",
              opts.multi_as ? "multi-AS" : "single-AS", opts.num_routers,
              opts.num_hosts, opts.num_engines, app_kind_name(opts.app),
              to_seconds(opts.end_time));
  Scenario scenario(opts);

  // The injector lives a layer above the Scenario (fault -> sim), so it is
  // attached through the pre-run callback, which hands us the engine and
  // NetSim of the measured run right before it executes.
  std::unique_ptr<FaultInjector> injector;
  if (!spec.faults.empty()) {
    injector = std::make_unique<FaultInjector>(scenario.network(),
                                               scenario.forwarding_mut());
    const FaultSchedule* sched = &spec.faults;
    FaultInjector* inj = injector.get();
    scenario.set_pre_run([inj, sched](Engine& engine, NetSim& sim) {
      inj->arm(engine, sim, *sched);
    });
  }

  // Recovery metrics (guard.* schema): the GuardedRun wrapper and the
  // watchdog both record into this registry.
  obs::Registry guard_registry;

  std::printf("%-7s %10s %9s %9s %8s %12s\n", "mapping", "T(sec)", "MLL(ms)",
              "imbal", "PE", "events");
  for (const MappingKind kind : spec.mappings) {
    ExperimentResult r;
    if (opts.guard.enabled &&
        opts.guard.on_stall == guard::OnStall::kCancel) {
      // Supervised execution: each attempt re-runs the scenario under the
      // plan's configuration, resuming from the newest checkpoint once one
      // exists. Recovery replays bit-identical state, so a recovered run
      // reports the same results as an uninterrupted one.
      bool have_result = false;
      guard::GuardedRun::Options gro;
      gro.max_retries = spec.guard_retries;
      guard::GuardedRun runner(gro, &guard_registry);
      const auto report = runner.run(
          opts.executor_threads,
          [&](const guard::AttemptPlan& plan) -> guard::AttemptOutcome {
            scenario.set_executor_threads(plan.threads);
            CkptOptions attempt_ckpt = opts.ckpt;
            if (plan.restore && !attempt_ckpt.path.empty() &&
                file_exists(attempt_ckpt.path)) {
              attempt_ckpt.restore_path = attempt_ckpt.path;
            }
            scenario.set_ckpt(attempt_ckpt);
            try {
              r = scenario.run(kind);
            } catch (const EngineError& e) {
              if (e.category() == ErrorCategory::kInternal) throw;
              return {guard::AttemptStatus::kFailed, e.what()};
            }
            if (scenario.last_run_cancelled()) {
              return {guard::AttemptStatus::kStalled,
                      "watchdog cancelled the run"};
            }
            have_result = true;
            return {guard::AttemptStatus::kCompleted, ""};
          });
      if (!have_result) {
        std::fprintf(stderr, "guarded run failed permanently: %s\n",
                     report.last_error.c_str());
        return 1;
      }
      if (report.attempts > 1) {
        std::printf(
            "        guard: recovered after %d attempts "
            "(stalls=%llu errors=%llu rung=%d)\n",
            report.attempts,
            static_cast<unsigned long long>(report.stalls),
            static_cast<unsigned long long>(report.errors),
            report.degraded_rung);
      }
    } else {
      r = scenario.run(kind);
    }
    std::printf("%-7s %10.3f %9.3f %9.3f %8.3f %12llu\n",
                mapping_kind_name(kind), r.metrics.simulation_time_s,
                to_milliseconds(r.mapping.achieved_mll),
                r.metrics.load_imbalance, r.metrics.parallel_efficiency,
                static_cast<unsigned long long>(r.metrics.total_events));
    if (injector != nullptr) {
      std::printf("        faults injected: %llu\n",
                  static_cast<unsigned long long>(
                      injector->faults_injected()));
    }
  }
  return 0;
}
