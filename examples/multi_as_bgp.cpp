// Multi-AS / BGP demonstration: generates the Internet-like topology a
// multi-AS scenario file describes with the maBrite procedure (AS
// classification, provider/customer/peer relationships, automatic
// import/export policies), solves BGP, and prints the routing structure
// the policies induce — then runs the file's first mapping over it.
//
//   ./multi_as_bgp [--config=scenarios/bgp-chaos.dml]
//                  [--override='as 20 routers 1000 seed 7']
//
// --override is merged over the file as in massf_cli. A single-AS file
// exits 1.
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <string>

#include "routing/bgp.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/flags.hpp"

namespace massf {
namespace {

// Prints the BGP structure of the scenario's network, then runs it.
void run_study(const ScenarioSpec& spec) {
  Scenario scenario(spec.options);
  const Network& net = scenario.network();

  // AS classification summary (paper Section 5.1.2 step 2).
  int counts[3] = {0, 0, 0};
  for (const AsInfo& info : net.as_info) {
    ++counts[static_cast<int>(info.cls)];
  }
  std::printf("AS classification: %d Core, %d Regional ISP, %d Stub\n",
              counts[0], counts[1], counts[2]);

  // Relationship summary.
  int rels[3] = {0, 0, 0};
  for (const AsAdjacency& adj : net.as_adjacency) {
    ++rels[static_cast<int>(adj.rel_ab)];
  }
  std::printf("AS adjacencies: %zu total (%d provider-customer, %d peer)\n",
              net.as_adjacency.size(), rels[0] + rels[1], rels[2]);

  // BGP results: reachability and path-length histogram.
  const BgpSolver* bgp = scenario.forwarding().bgp();
  std::map<int, int> path_lens;
  int reachable = 0, valley_free = 0, pairs = 0;
  for (AsId a = 0; a < net.num_as(); ++a) {
    for (AsId b = 0; b < net.num_as(); ++b) {
      if (a == b) continue;
      ++pairs;
      if (!bgp->reachable(a, b)) continue;
      ++reachable;
      valley_free += bgp->path_is_valley_free(a, b);
      ++path_lens[bgp->route(a, b).path_len];
    }
  }
  std::printf("BGP: %d/%d AS pairs reachable, %d/%d paths valley-free\n",
              reachable, pairs, valley_free, reachable);
  std::printf("AS-path length histogram:\n");
  for (const auto& [len, count] : path_lens) {
    std::printf("  %d hops: %d\n", len, count);
  }

  // An example policy path.
  const std::vector<AsId> path = bgp->as_path(net.num_as() - 1, 0);
  std::printf("example AS path %d -> 0:", net.num_as() - 1);
  for (AsId a : path) std::printf(" %d", a);
  std::printf("\n");

  // The scenario's own run: its first mapping, its traffic and faults.
  const ExperimentResult r = scenario.run(spec.mappings.front());
  std::printf("%s\n", summarize(r).c_str());
}

}  // namespace
}  // namespace massf

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("multi_as_bgp",
                  "maBrite multi-AS topology, BGP routes and a short "
                  "simulation over them, from a multi-AS scenario file.");
  flags.add_string("config", MASSF_SCENARIO_DIR "/bgp-chaos.dml",
                   "multi-AS scenario DML file");
  flags.add_string("override", "",
                   "scenario atoms merged over the file, as in massf_cli "
                   "(e.g. 'as 20 routers 1000')");
  flags.parse_or_exit(argc, argv);

  const std::string config = flags.get_string("config");
  std::string error;
  std::optional<ScenarioSpec> spec = load_scenario_file(config, &error);
  std::string source = config;
  if (spec && flags.set("override")) {
    // The file is valid on its own, so whatever fails now is the
    // override's doing.
    source = "--override";
    spec = load_scenario_file(config, &error, flags.get_string("override"));
  }
  if (!spec) {
    std::fprintf(stderr, "%s: %s\n", source.c_str(), error.c_str());
    return 1;
  }
  if (!spec->options.multi_as) {
    std::fprintf(stderr,
                 "%s: multi_as_bgp needs a multi-AS scenario (multi_as 1), "
                 "and this one is single-AS\n",
                 config.c_str());
    return 1;
  }

  try {
    run_study(*spec);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s: %s\n", config.c_str(), e.what());
    return 1;
  }
  return 0;
}
