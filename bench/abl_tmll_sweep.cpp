// Ablation: the Tmll sweep at the heart of HPROF (paper Section 3.4.3).
// For each candidate threshold, prints the contracted-graph size, the
// achieved MLL, and the evaluator terms Es, Ec, E — exposing the
// parallelism-vs-decoupling tradeoff the evaluator navigates, and where the
// chosen threshold falls. The rows are the candidates the mapping itself
// evaluates (lb/hierarchical.hpp), on the HTOP graph. The network and
// engine count come from a scenario file (default: scenarios/fig06.dml).
//
//   ./abl_tmll_sweep [--config=scenarios/paper-full.dml]
#include <cstdio>

#include "lb/graph_prep.hpp"
#include "lb/hierarchical.hpp"
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
    std::fprintf(stderr, "%s\n", error.c_str());
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

  const TmllSweep sweep = list_tmll_candidates(g, lats, mopts);
  for (std::size_t i = 0; i < sweep.candidates.size(); ++i) {
    const HierarchicalResult r =
        evaluate_tmll_candidate(g, lats, mopts, sweep, i);
    std::printf("%.2f\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%lld\n",
                to_milliseconds(r.tmll), sweep.candidates[i].clusters,
                to_milliseconds(r.achieved_mll), r.score.es, r.score.ec,
                r.score.e, static_cast<long long>(r.edge_cut));
  }
  if (const auto chosen = hierarchical_partition(g, lats, mopts)) {
    std::printf("# chosen: tmll_ms %.2f, E %.3f\n",
                to_milliseconds(chosen->tmll), chosen->score.e);
  }
  return 0;
}
