// The experiment driver: runs a complete load-balance study from a
// declarative scenario file.
//
//   ./massf_cli --config=exp.dml                  # run the file's study
//   ./massf_cli --config=exp.dml --override='mapping HPROF guard.enabled 1'
//   ./massf_cli --template                        # print a scenario template
//
// The scenario file (sim/scenario_config.hpp) is the whole experiment —
// topology scale, traffic mix, fault schedule, stall guard, mapping run
// list — and the only place a run is configured. --override
// changes it for one run: its value is the body of a campaign
// `override [ ]` block, scalar atoms with dotted keys for sub-blocks,
// merged over the file exactly as a campaign sweep merges one. Repeating
// a key makes a list (`mapping TOP2 mapping HPROF`).
//
// Exit status: 0 on success, 1 when the scenario file, the override or a
// run fails, 2 on usage errors (a missing --config, an unknown or repeated
// flag).
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "campaign/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace massf;

  FlagTable flags("massf_cli",
                  "Runs a load-balance study from a scenario file.");
  flags.add_bool("template", false,
                 "print a scenario file template and exit");
  flags.add_string("config", "", "scenario DML file (required)");
  flags.add_string("override", "",
                   "scenario atoms merged over the file, as in a campaign "
                   "override [ ] block (e.g. 'mapping HPROF "
                   "guard.enabled 1')");
  flags.parse_or_exit(argc, argv);

  if (flags.get_bool("template")) {
    ScenarioSpec defaults;
    defaults.name = "template";
    defaults.options.app = AppKind::kScaLapack;
    std::fputs(write_dml(scenario_spec_to_dml(defaults)).c_str(), stdout);
    return 0;
  }

  if (!flags.set("config")) {
    std::fprintf(stderr,
                 "missing --config=<file> (print a template with "
                 "--template)\n");
    return 2;
  }
  const std::string config = flags.get_string("config");
  std::string error;
  const std::optional<ScenarioSpec> loaded =
      load_scenario_file(config, &error, flags.get_string("override"));
  if (!loaded) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const ScenarioSpec& spec = *loaded;

  const ScenarioOptions& opts = spec.options;
  std::printf("experiment: %s, %d routers, %d hosts, %d engines, app=%s, "
              "%.1f virtual seconds\n",
              opts.multi_as ? "multi-AS" : "single-AS", opts.num_routers,
              opts.num_hosts, opts.num_engines, app_kind_name(opts.app),
              to_seconds(opts.end_time));
  try {
    Scenario scenario(opts);
    std::printf("%-7s %10s %9s %9s %8s %12s\n", "mapping", "T(sec)",
                "MLL(ms)", "imbal", "PE", "events");
    for (const MappingKind kind : spec.mappings) {
      const ExperimentResult r = run_mapping(scenario, kind);
      std::printf("%-7s %10.3f %9.3f %9.3f %8.3f %12llu\n",
                  mapping_kind_name(kind), r.metrics.simulation_time_s,
                  to_milliseconds(r.mapping.achieved_mll),
                  r.metrics.load_imbalance, r.metrics.parallel_efficiency,
                  static_cast<unsigned long long>(r.metrics.total_events));
      if (!opts.faults.empty()) {
        std::printf("        faults injected: %llu\n",
                    static_cast<unsigned long long>(r.faults_injected));
      }
    }
  } catch (const std::exception& e) {
    // A run the scenario cannot carry (a fault aimed past the network,
    // more hosts than the network has) is a failed run, not a crash.
    std::fflush(stdout);
    std::fprintf(stderr, "%s: %s\n", config.c_str(), e.what());
    return 1;
  }
  return 0;
}
