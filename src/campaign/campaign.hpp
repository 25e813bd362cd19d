// Declarative experiment campaigns: a base scenario plus sweep axes,
// expanded into a deterministic list of fully-resolved runs.
//
// A campaign file is DML (like the scenario format it builds on):
//
//   Campaign [
//     name nightly-tiny
//     scenario tiny.dml     # base scenario file, relative to this file —
//                           # or an embedded Experiment [ ... ] block
//     workers 2             # default worker parallelism (CLI overrides)
//     golden 1              # add PDES-ring calibration rows (golden.hpp)
//     sweep [
//       seed 1   seed 2     # each repeated atom is one point on its axis
//       threads 0  threads 2
//       mapping HPROF
//       override [ tag small  routers 80  guard.enabled 1 ]
//     ]
//   ]
//
// Expansion is the cross product over the non-empty axes, in the fixed
// order override > mapping > threads > seed (outer to inner), so
// the run list — ids, directories, roll-up rows — is identical no matter
// where or with how many workers the campaign executes. Each run's id is
// the joined "axis=value" labels ("base" when there are no axes).
//
// An `override` block is one axis point holding scalar scenario keys
// (dotted for sub-blocks: `guard.enabled`); values are merged into
// the base Experiment tree and re-validated by the strict scenario
// parser, so a typo'd key or bad value fails with the campaign file's
// line number. `tag` names the point in run ids (default o0, o1, ...).
// Labels are unique within an axis: a repeated `seed 1`, `mapping HPROF`
// or override tag (an explicit `tag o1` included) is a line-numbered
// error, since both points would share a run id and a roll-up aggregate.
//
// With `golden 1`, one calibration row per distinct thread count in the
// expansion runs the pinned PDES ring workload
// (pdes/golden_ring.hpp) instead of a scenario — putting the
// engine-determinism golden checksum in every campaign roll-up.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/scenario_config.hpp"

namespace massf {

/// One axis assignment of an expanded run, e.g. {"threads", "2"}.
struct CampaignAxisValue {
  std::string axis;
  std::string label;
};

/// A fully-resolved unit of campaign work.
struct CampaignRun {
  std::string id;  ///< "threads=2,seed=1" / "base" / "golden[...]"
  std::vector<CampaignAxisValue> axis;
  ScenarioSpec spec;
  /// True for a PDES-ring calibration row: the runner executes the
  /// golden workload under spec.options.executor_threads and records
  /// its checksum instead of running the scenario.
  bool golden = false;
};

struct CampaignSpec {
  std::string name;      ///< "" = unnamed
  std::string scenario;  ///< base scenario path as written ("" = embedded)
  std::int32_t workers = 1;
  bool golden = false;
  /// The expansion, in deterministic order (golden rows last).
  std::vector<CampaignRun> runs;
};

/// Parses + expands a campaign document. Strict like the scenario parser:
/// unknown keys and malformed values are "line N: what" errors (x_ keys
/// ignored). `include_dir` anchors the `scenario` file and, transitively,
/// its fault includes.
std::optional<CampaignSpec> parse_campaign(std::string_view text,
                                           std::string* error = nullptr,
                                           const std::string& include_dir = "");

/// Reads and parses a campaign file; relative includes resolve against
/// the file's directory.
std::optional<CampaignSpec> load_campaign_file(const std::string& path,
                                               std::string* error = nullptr);

}  // namespace massf
