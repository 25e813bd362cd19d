// Reproduces paper Figure 3: load variation over the lifetime of the
// simulation. Runs a scenario file (default: the reduced single-AS
// ScaLapack experiment, scenarios/fig06.dml) under the HPROF mapping with
// per-engine load tracing enabled and prints, per virtual-time bin, the
// min / mean / max / stddev of the per-engine event counts — the spread
// the paper's chart visualizes (the load on each physical node varies
// greatly over time).
//
//   ./fig03_load_variation [--config=scenarios/paper-full.dml]
#include <algorithm>
#include <cstdio>

#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace massf;

  FlagTable flags("fig03_load_variation",
                  "Figure 3: per-engine load over the simulation lifetime.");
  flags.add_string("config", MASSF_SCENARIO_DIR "/fig06.dml",
                   "scenario DML file");
  flags.parse_or_exit(argc, argv);
  std::string error;
  const auto spec = load_scenario_file(flags.get_string("config"), &error);
  if (!spec) {
    std::fprintf(stderr, "%s: %s\n", flags.get_string("config").c_str(),
                 error.c_str());
    return 1;
  }

  ScenarioOptions opts = spec->options;
  // The figure needs a load trace: 250 ms bins unless the file sets one.
  if (opts.load_bin == 0) opts.load_bin = milliseconds(250);
  Scenario scenario(opts);
  const ExperimentResult r = scenario.run(MappingKind::kHProf);

  std::printf("# Figure 3: Load Variation over the Lifetime of Simulation\n");
  std::printf(
      "# per %.0f ms virtual-time bin: per-engine kernel events\n"
      "# time_s\tmin\tmean\tmax\tstddev\n",
      to_milliseconds(opts.load_bin));

  std::size_t max_bins = 0;
  for (const TimeSeries& ts : r.stats.lp_load) {
    max_bins = std::max(max_bins, ts.num_bins());
  }
  for (std::size_t bin = 0; bin < max_bins; ++bin) {
    Accumulator acc;
    for (const TimeSeries& ts : r.stats.lp_load) {
      acc.add(bin < ts.num_bins() ? ts.bin(bin) : 0.0);
    }
    std::printf("%.2f\t%.0f\t%.1f\t%.0f\t%.1f\n",
                static_cast<double>(bin) * to_seconds(opts.load_bin),
                acc.min(), acc.mean(), acc.max(), acc.stddev());
  }
  return 0;
}
