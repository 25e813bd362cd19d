// Multi-AS / BGP demonstration: generates an Internet-like topology with
// the maBrite procedure (AS classification, provider/customer/peer
// relationships, automatic import/export policies), solves BGP, and prints
// the routing structure the policies induce — then runs a short simulation
// over it.
//
//   ./multi_as_bgp [--as=N] [--routers-per-as=N] [--seed=S]
#include <cstdio>
#include <map>

#include "routing/bgp.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("multi_as_bgp",
                  "maBrite multi-AS topology, BGP routes and a short "
                  "simulation over them.");
  flags.add_int("as", 20, "autonomous systems");
  flags.add_int("routers-per-as", 50, "routers in each AS");
  flags.add_int("seed", 7, "scenario seed");
  flags.parse_or_exit(argc, argv);

  ScenarioOptions opts;
  opts.multi_as = true;
  opts.num_as = static_cast<std::int32_t>(flags.get_int("as"));
  opts.num_routers =
      opts.num_as * static_cast<std::int32_t>(flags.get_int("routers-per-as"));
  opts.num_hosts = opts.num_routers / 2;
  opts.num_clients = opts.num_hosts / 4;
  opts.num_servers = opts.num_hosts / 10;
  opts.num_engines = 12;
  opts.end_time = seconds(4);
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  opts.http.think_time_mean_s = 0.5;

  Scenario scenario(opts);
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

  // Short simulation under HPROF.
  const ExperimentResult r = scenario.run(MappingKind::kHProf);
  std::printf("%s\n", summarize(r).c_str());
  return 0;
}
