// Ablation: the manual latency->weight tuning behind TOP2/PROF2 (paper
// Section 4.3: "we adjusted the link latency to edge weight converting
// algorithm... It is not a general solution"). Sweeps the tuning exponent
// and prints the resulting achieved MLL and predicted efficiency — showing
// both why the tuning was needed (exponent 1.0 = untuned TOP yields a tiny
// MLL) and why it is brittle (no single exponent dominates), which is the
// motivation for HPROF. The network and engine count come from a scenario
// file (default: scenarios/fig06.dml).
//
//   ./abl_tuned_exponent [--config=scenarios/paper-full.dml]
#include <cstdio>

#include "lb/mapping.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace massf;

  FlagTable flags("abl_tuned_exponent",
                  "Ablation: TOP2's edge-weight tuning exponent sweep.");
  flags.add_string("config", MASSF_SCENARIO_DIR "/fig06.dml",
                   "scenario DML file");
  flags.parse_or_exit(argc, argv);
  std::string error;
  const auto spec = load_scenario_file(flags.get_string("config"), &error);
  if (!spec) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  const Scenario scenario(spec->options);
  const ScenarioOptions& sopts = scenario.options();

  std::printf("# Ablation: TOP2 edge-weight tuning exponent sweep"
              " (%d routers, %d engines)\n",
              sopts.num_routers, sopts.num_engines);
  std::printf("# exponent\tachieved_mll_ms\tbalance\tpredicted_E\n");
  for (const double exp : {1.0, 1.2, 1.4, 1.6, 2.0, 2.5, 3.0}) {
    MappingOptions mo = sopts.mapping;
    mo.kind = exp == 1.0 ? MappingKind::kTop : MappingKind::kTop2;
    mo.tuned_exponent = exp;
    const Mapping m = compute_mapping(scenario.network(), mo, nullptr);
    std::printf("%.1f\t%.3f\t%.3f\t%.4f\n", exp,
                to_milliseconds(m.achieved_mll), m.balance,
                m.predicted_efficiency);
  }
  return 0;
}
