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
#include <memory>

#include "campaign/runner.hpp"
#include "fault/injector.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/flags.hpp"

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
  const std::unique_ptr<FaultInjector> injector =
      attach_faults(scenario, spec);

  std::printf("%-7s %10s %9s %9s %8s %12s\n", "mapping", "T(sec)", "MLL(ms)",
              "imbal", "PE", "events");
  for (const MappingKind kind : spec.mappings) {
    const MappingRun run = run_mapping(scenario, spec, kind, nullptr);
    if (!run.result) {
      std::fprintf(stderr, "guarded run failed permanently: %s\n",
                   run.guard.last_error.c_str());
      return 1;
    }
    if (run.guard.attempts > 1) {
      std::printf(
          "        guard: recovered after %d attempts "
          "(stalls=%llu errors=%llu rung=%d)\n",
          run.guard.attempts,
          static_cast<unsigned long long>(run.guard.stalls),
          static_cast<unsigned long long>(run.guard.errors),
          run.guard.degraded_rung);
    }
    const ExperimentResult& r = *run.result;
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
