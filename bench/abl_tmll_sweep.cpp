// Ablation: the Tmll sweep at the heart of HPROF (paper Section 3.4.3).
// For each candidate threshold, prints the contracted-graph size, the
// achieved MLL, and the evaluator terms Es, Ec, E — exposing the
// parallelism-vs-decoupling tradeoff the evaluator navigates, and where the
// chosen threshold falls. The network and engine count come from a
// scenario file (default: scenarios/fig06.dml).
//
//   ./abl_tmll_sweep [--config=scenarios/paper-full.dml]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>

#include "graph/union_find.hpp"
#include "lb/graph_prep.hpp"
#include "partition/partition.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_config.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace massf;

  FlagTable flags("abl_tmll_sweep",
                  "Ablation: HPROF's Tmll threshold sweep.");
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

  Scenario scenario(spec->options);
  const Network& net = scenario.network();
  // The mapping options as the Scenario resolved them (engine count and
  // cluster model filled in).
  const MappingOptions& mopts = scenario.options().mapping;
  std::vector<std::int64_t> lats;
  const Graph g =
      prepare_graph(net, MappingKind::kTop, nullptr, mopts, &lats);
  const SimTime sync = mopts.cluster.sync_cost_time(mopts.num_engines);

  std::printf("# Ablation: HPROF Tmll sweep (%d routers, %d engines,"
              " sync=%.3f ms)\n",
              net.num_routers, mopts.num_engines, to_milliseconds(sync));
  std::printf("# tmll_ms\tclusters\tachieved_mll_ms\tEs\tEc\tE\tedge_cut\n");

  std::vector<EdgeId> order(static_cast<std::size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return lats[static_cast<std::size_t>(a)] < lats[static_cast<std::size_t>(b)];
  });

  UnionFind uf(g.num_vertices());
  std::size_t cursor = 0;
  for (SimTime tmll = (sync / mopts.tmll_step + 1) * mopts.tmll_step;
       tmll <= milliseconds(6); tmll += mopts.tmll_step) {
    while (cursor < order.size() &&
           lats[static_cast<std::size_t>(order[cursor])] < tmll) {
      const EdgeId e = order[cursor++];
      uf.unite(g.edge_u(e), g.edge_v(e));
    }
    if (uf.num_sets() < mopts.num_engines) break;
    const auto cluster = uf.compress();
    std::vector<EdgeId> origin;
    const Graph dumped = contract(g, cluster, uf.num_sets(), lats, &origin);
    std::vector<std::int64_t> dlat(origin.size());
    for (std::size_t i = 0; i < origin.size(); ++i) {
      dlat[i] = lats[static_cast<std::size_t>(origin[i])];
    }
    PartitionOptions popt;
    popt.num_parts = mopts.num_engines;
    const PartitionResult pr = partition_graph(dumped, popt);
    SimTime mll = min_cut_edge_aux(dumped, pr.part, dlat);
    if (mll == std::numeric_limits<std::int64_t>::max()) mll = tmll;
    const PartitionScore s = score_partition(mll, sync, pr.part_weights);
    std::printf("%.2f\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%lld\n",
                to_milliseconds(tmll), dumped.num_vertices(),
                to_milliseconds(mll), s.es, s.ec, s.e,
                static_cast<long long>(pr.edge_cut));
  }
  return 0;
}
