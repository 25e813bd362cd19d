// Campaign execution: one resolved run at a time, or the whole expansion
// across parallel workers. The run loop for one mapping (run_mapping) is
// the one massf_cli executes too, so a scenario file means the same thing
// to both: it runs the mapping and, when the guard's watchdog cancelled a
// stalled run, runs it once more from t = 0 on the sequential executor.
//
// Every run executes hermetically — its own Scenario (or golden ring),
// its own obs::Registry — so the result is a pure function of the run's
// spec. run_campaign exploits that: whether runs execute in-process on
// worker threads, or in worker subprocesses (massf_campaign re-invoking
// itself with --worker-run=K), with 1 worker or N, the per-run records
// and artifacts are bit-identical apart from the wall-clock fields the
// canonical views exclude. The campaign determinism test holds the
// runner to exactly that.
//
// Per-run artifacts (under <out>/runs/<NNN>-<id>/):
//   metrics.json            full massf.metrics.v1 export
//   metrics.canonical.json  the same minus timing_metric_excludes()
//   result.kv               the RunRecord, one "key<TAB>value" per line —
//                           the wire format worker subprocesses report
//                           through (no JSON parser in the tree)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "sim/scenario.hpp"

namespace massf {

/// Runs `kind` on `scenario`. When the guard's watchdog cancelled a
/// stalled run (Scenario::last_run_cancelled()), prints one stderr line and
/// runs the mapping once more from t = 0 on the sequential executor, which
/// has no synchronization protocol to stall; the scenario's thread count
/// is restored afterwards for the next mapping. Every executor produces
/// the bit-identical trace, so a recovered run reports the same results as
/// an uninterrupted one. An EngineError propagates from the first run: a
/// config or topology error fails the same way on every executor.
ExperimentResult run_mapping(Scenario& scenario, MappingKind kind);

/// The outcome of one campaign run: the deterministic result columns the
/// roll-up reports, plus `wall_s` (timing; excluded from canonical
/// comparisons) and failure diagnostics.
struct RunRecord {
  std::string id;
  std::vector<CampaignAxisValue> axis;
  bool golden = false;
  bool ok = false;
  std::string error;  ///< failure diagnostic ("" when ok)

  // Deterministic results (scenario rows).
  std::string mapping;  ///< mapping kind name ("" for golden rows)
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  double modeled_time_s = 0;
  double load_imbalance = 0;
  double parallel_efficiency = 0;
  double mll_ms = 0;
  std::uint64_t faults_injected = 0;

  // Golden rows only.
  bool has_checksum = false;
  std::uint64_t checksum = 0;

  // Timing — never part of canonical comparisons.
  double wall_s = 0;
};

/// Metric names excluded from the canonical per-run JSON: wall-clock
/// timings and watchdog accounting (entries ending in '.' exclude by
/// prefix — see obs::to_json_excluding). Everything else the simulator
/// publishes is deterministic for a fixed run spec.
std::span<const std::string_view> timing_metric_excludes();

/// Executes one run in-process. When `run_dir` is non-empty it is
/// created and the per-run artifacts are written there.
RunRecord execute_run(const CampaignRun& run, const std::string& run_dir);

/// "NNN-<id with non-[A-Za-z0-9._-] mapped to _>": stable, shell-safe
/// per-run directory names, identical in parent and worker.
std::string run_dir_name(std::size_t index, const CampaignRun& run);

/// result.kv wire format round trip.
std::string run_record_to_kv(const RunRecord& record);
bool run_record_from_kv(const std::string& text, RunRecord* record,
                        std::string* error);

struct CampaignExecOptions {
  std::string out_dir;  ///< "" = execute without writing artifacts
  std::int32_t workers = 1;
  /// Non-empty = subprocess mode: the binary to re-invoke per run (the
  /// campaign CLI passes /proc/self/exe). Requires out_dir and
  /// campaign_path, since workers re-load the campaign file themselves.
  std::string self_exe;
  std::string campaign_path;
};

struct CampaignOutcome {
  std::vector<RunRecord> runs;  ///< expansion order (== spec.runs)
  std::int32_t workers = 1;
  double wall_s = 0;  ///< timing
};

/// Executes the whole expansion across `workers` parallel workers.
CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignExecOptions& options);

}  // namespace massf
