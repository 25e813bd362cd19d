// The declarative scenario format: the whole experiment — topology scale,
// traffic mix, simulated cluster, run control, fault schedule, stall
// guard, and the mapping run list — round-trips through one DML
// file, so experiments are reproducible from a single checked-in file (the
// MicroGrid workflow). The file is the only place a
// run is configured: massf_cli changes it only through an override
// (merge_override), the same dotted-key override a campaign sweeps.
//
// Schema (scenario_spec_to_dml emits every key; all are optional on input
// and default to the ScenarioOptions defaults):
//
//   Experiment [
//     name quickstart       # optional label (run directories, reports)
//     multi_as 0            # 1 = maBrite multi-AS, 0 = flat single-AS
//     routers 2000  hosts 1000  as 20
//     clients 400   servers 100
//     app scalapack         # scalapack | gridnpb | none
//     app_hosts 16
//     engines 24
//     seconds 8  profile_seconds 3
//     think_time_s 1.0  file_mean_bytes 12000
//     executor_threads 0    # 0 = sequential reference executor
//     load_bin_s 0          # per-engine load-trace bin (0 = off)
//     seed 42
//     link_model packet     # packet | hybrid (fluid background fast path)
//     mapping HPROF         # repeatable: the run list (default HPROF)
//     background_flows [    # long-lived flows toward the server pool
//       sources 0           # 0 = no background-flow workload
//       think_time_s 5.0  mean_bytes 1000000
//       recompute_every 8   # fluid rate-recompute cadence (boundaries)
//       stall_timeout_s 60  # fail flows stalled at zero rate this long
//       rate_cap_bps 0      # per-flow TCP window/RTT ceiling (0 = off)
//     ]
//     guard [ enabled 0  deadline_s 30  dump "" ]   # stall watchdog
//     faults [              # chaos schedule: embedded lines and/or a file
//       file "chaos.txt"    # include, relative to the scenario file
//       event "at 1.0 link_down link=3"   # one fault-format line each
//     ]
//   ]
//
// Parsing is strict: an unknown key anywhere in the Experiment tree is a
// line-numbered error (a typo'd knob must not silently no-op). Keys
// prefixed `x_` are ignored everywhere — the forward-compatibility escape
// hatch for files that must also parse under older binaries.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dml/dml.hpp"
#include "sim/scenario.hpp"

namespace massf {

/// A fully-specified experiment: ScenarioOptions (fault schedule
/// included) plus what the tools above the Scenario object consume (the
/// mapping run list). This is the unit a scenario file describes and the
/// unit the campaign runner sweeps.
struct ScenarioSpec {
  std::string name;            ///< optional label ("" = unnamed)
  ScenarioOptions options;     ///< everything Scenario consumes
  /// Mappings to run, in order (massf_cli runs all; a campaign run uses
  /// the first — the campaign sweeps mappings as an axis instead).
  std::vector<MappingKind> mappings{MappingKind::kHProf};
};

/// Serializes the complete spec; the output re-parses to an equal spec
/// (parse -> to_dml -> parse is a fixed point, which the corpus test
/// asserts for every checked-in scenario).
DmlNode scenario_spec_to_dml(const ScenarioSpec& spec);

/// Parses an Experiment block into a full spec. Strict: unknown keys and
/// malformed values fail with "line N: what" via `error` (the fault
/// parser's idiom); keys prefixed `x_` are ignored. `include_dir` anchors
/// relative `faults [ file ... ]` includes ("" = process CWD).
std::optional<ScenarioSpec> scenario_spec_from_dml(
    const DmlNode& root, std::string* error = nullptr,
    const std::string& include_dir = "");

/// parse_dml + scenario_spec_from_dml in one call; DML syntax errors are
/// reported in the same "line N: what" form.
std::optional<ScenarioSpec> parse_scenario(std::string_view text,
                                           std::string* error = nullptr,
                                           const std::string& include_dir = "");

/// Reads and parses a scenario file; relative fault includes resolve
/// against the file's directory. A non-empty `override_text` — the body of
/// an `override [ ]` block, e.g. "mapping HPROF guard.enabled 1" — is merged
/// over the file (merge_override) before the one validation. Its atoms
/// have no source line, so the errors they cause carry none.
std::optional<ScenarioSpec> load_scenario_file(
    const std::string& path, std::string* error = nullptr,
    std::string_view override_text = {});

/// Mapping-kind name round trip ("HPROF" <-> MappingKind::kHProf, etc.).
std::optional<MappingKind> mapping_kind_from_name(const std::string& name);

/// Deep copy (DmlNode is move-only).
DmlNode clone_dml(const DmlNode& node);

/// Merges an override into the Experiment block of `root`. `body` holds
/// what a campaign `override [ ]` block or `massf_cli --override` holds:
/// scalar atoms, with dotted keys for sub-block atoms (`guard.enabled 1`).
/// The first atom for a key replaces every atom the base has under it and
/// later ones append, so `mapping TOP2 mapping HPROF` is a run list.
/// Missing sub-blocks are created; `x_` keys are skipped. Atoms keep their
/// line, so the strict parser reports a bad value where the override
/// wrote it. Fails on a nested block or a root with no Experiment block;
/// validating the merged tree is the caller's job (scenario_spec_from_dml).
bool merge_override(DmlNode* root, const DmlNode& body,
                    std::string* error = nullptr);

}  // namespace massf
