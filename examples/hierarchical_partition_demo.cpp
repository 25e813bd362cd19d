// The hierarchical partitioning algorithm on its own: builds a network,
// prepares the partitioner input graph, and walks the Tmll sweep printing
// every candidate's contracted size, achieved MLL, and evaluator terms —
// then reports the chosen partition. A compact view of how HPROF trades
// parallelism (many clusters) against decoupling (large MLL).
//
//   ./hierarchical_partition_demo [--routers=N] [--engines=N]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>

#include "graph/union_find.hpp"
#include "lb/graph_prep.hpp"
#include "lb/hierarchical.hpp"
#include "partition/partition.hpp"
#include "topology/brite.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("hierarchical_partition_demo",
                  "Walks HPROF's Tmll sweep on a flat network and reports "
                  "the chosen partition.");
  flags.add_int("routers", 2000, "routers in the flat network");
  flags.add_int("engines", 32, "simulation engines to partition onto");
  flags.parse_or_exit(argc, argv);

  BriteOptions bo;
  bo.num_routers = static_cast<std::int32_t>(flags.get_int("routers"));
  bo.num_hosts = 100;
  bo.seed = 3;
  const Network net = generate_flat(bo);

  MappingOptions mo;
  mo.num_engines = static_cast<std::int32_t>(flags.get_int("engines"));
  mo.cluster.num_engine_nodes = mo.num_engines;

  std::vector<std::int64_t> lats;
  const Graph g = prepare_graph(net, MappingKind::kTop, nullptr, mo, &lats);
  const SimTime sync = mo.cluster.sync_cost_time(mo.num_engines);
  std::printf("graph: %d vertices, %d edges; %d engines, sync=%.3f ms\n",
              g.num_vertices(), g.num_edges(), mo.num_engines,
              to_milliseconds(sync));

  std::printf("%8s %9s %8s %7s %7s %7s\n", "Tmll(ms)", "clusters",
              "MLL(ms)", "Es", "Ec", "E");
  std::vector<EdgeId> order(static_cast<std::size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return lats[static_cast<std::size_t>(a)] <
           lats[static_cast<std::size_t>(b)];
  });
  UnionFind uf(g.num_vertices());
  std::size_t cursor = 0;
  for (SimTime tmll = (sync / mo.tmll_step + 1) * mo.tmll_step;
       tmll <= milliseconds(8); tmll += mo.tmll_step) {
    while (cursor < order.size() &&
           lats[static_cast<std::size_t>(order[cursor])] < tmll) {
      uf.unite(g.edge_u(order[cursor]), g.edge_v(order[cursor]));
      ++cursor;
    }
    if (uf.num_sets() < mo.num_engines) break;
    const auto cluster = uf.compress();
    std::vector<EdgeId> origin;
    const Graph dumped = contract(g, cluster, uf.num_sets(), lats, &origin);
    std::vector<std::int64_t> dlat(origin.size());
    for (std::size_t i = 0; i < origin.size(); ++i) {
      dlat[i] = lats[static_cast<std::size_t>(origin[i])];
    }
    PartitionOptions popt;
    popt.num_parts = mo.num_engines;
    const PartitionResult pr = partition_graph(dumped, popt);
    SimTime mll = min_cut_edge_aux(dumped, pr.part, dlat);
    if (mll == std::numeric_limits<std::int64_t>::max()) mll = tmll;
    const PartitionScore s = score_partition(mll, sync, pr.part_weights);
    std::printf("%8.2f %9d %8.3f %7.3f %7.3f %7.3f\n",
                to_milliseconds(tmll), dumped.num_vertices(),
                to_milliseconds(mll), s.es, s.ec, s.e);
  }

  const auto best = hierarchical_partition(g, lats, mo);
  if (best) {
    std::printf("\nchosen: Tmll=%.2f ms, achieved MLL=%.3f ms, E=%.3f"
                " (%d candidates)\n",
                to_milliseconds(best->tmll),
                to_milliseconds(best->achieved_mll), best->score.e,
                best->candidates_tried);
  } else {
    std::printf("\nno admissible threshold; flat partition required\n");
  }
  return 0;
}
