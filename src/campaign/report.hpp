// Campaign roll-up: the machine-readable artifact and the human table.
//
// JSON layout (schema id "massf.campaign.v1"):
//
//   {
//     "schema": "massf.campaign.v1",
//     "name": "<campaign name>",
//     "scenario": "<base scenario path or \"\">",
//     "runs": [                       // expansion order
//       { "id": "...", "axis": {"seed": "1", ...}, "ok": true,
//         "mapping": "HPROF", "events": <uint>, "windows": <uint>,
//         "modeled_time_s": <d>, "load_imbalance": <d>,
//         "parallel_efficiency": <d>, "mll_ms": <d>,
//         "faults_injected": <uint>,
//         "checksum": "<uint as string>",   // golden rows only
//         "error": "..." }                  // failed rows only
//     ],
//     "failed": ["<id>", ...],
//     "aggregates": {                 // key-ordered; scenario rows only
//       "<axis>=<value>": { "runs": <uint>, "events": <uint>,
//         "modeled_time_s_mean": <d>, "load_imbalance_mean": <d>,
//         "parallel_efficiency_mean": <d> }
//     },
//     "golden": { "<id>": "<checksum>" },   // the golden-checksum column
//     "timing": { "wall_s": <d>, "workers": <int>,
//                 "run_wall_s": [<d>, ...] }
//   }
//
// Everything outside "timing" is a pure function of the campaign spec and
// the simulator's deterministic results; doubles use the shortest
// round-trip rendering (obs::format_double). Two executions of the same
// campaign — any worker count, threads or subprocesses — therefore
// produce byte-identical roll-ups once "timing" is dropped, which is the
// comparison scripts/check_bench.py --campaign --compare performs.
#pragma once

#include <string>

#include "campaign/runner.hpp"

namespace massf {

std::string campaign_to_json(const CampaignSpec& spec,
                             const CampaignOutcome& outcome);

/// Fixed-width table of the run list, one row per run, for terminals:
/// events, then all four paper figure metrics (T, achieved MLL, load
/// imbalance, parallel efficiency), wall time and status.
std::string campaign_table(const CampaignSpec& spec,
                           const CampaignOutcome& outcome);

}  // namespace massf
