// The declarative scenario format: the whole experiment — topology scale,
// traffic mix, simulated cluster, run control, fault schedule, rebalance /
// checkpoint / guard policy, and the mapping run list — round-trips
// through one DML file, so experiments are reproducible from a single
// checked-in file (the MicroGrid workflow). Everything massf_cli can be
// told with a run-control flag has an atom here; a test cross-checks the
// two surfaces so no knob can exist on one side only.
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
//       fidelity flow       # flow (fluid under hybrid) | packet (force TCP)
//       recompute_every 8   # fluid rate-recompute cadence (boundaries)
//       stall_timeout_s 60  # fail flows stalled at zero rate this long
//       rate_cap_bps 0      # per-flow TCP window/RTT ceiling (0 = off)
//     ]
//     rebalance [ enabled 0  threshold 1.25  every 64  sustain 2
//                 max_moves 8  fm_tolerance 1.05  fm_passes 4 ]
//     ckpt [ every 0  path ""  stop_after 0  restore "" ]
//     guard [ enabled 0  deadline_s 30  poll_s 0  dump "guard_stall.json"
//             policy recover  retries 1 ]
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
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dml/dml.hpp"
#include "fault/fault.hpp"
#include "sim/scenario.hpp"

namespace massf {

class FlagTable;

/// A fully-specified experiment: ScenarioOptions plus the layers that live
/// above the Scenario object (fault schedule, mapping run list, supervised
/// retry budget). This is the unit a scenario file describes and the unit
/// the campaign runner sweeps.
struct ScenarioSpec {
  std::string name;            ///< optional label ("" = unnamed)
  ScenarioOptions options;     ///< everything Scenario consumes
  FaultSchedule faults;        ///< chaos schedule (empty = no injector)
  /// Mappings to run, in order (massf_cli runs all; a campaign run uses
  /// the first — the campaign sweeps mappings as an axis instead).
  std::vector<MappingKind> mappings{MappingKind::kHProf};
  /// Same-configuration retries before the guarded runner degrades
  /// (guard::GuardedRun::Options::max_retries).
  std::int32_t guard_retries = 1;
};

/// One row of the scenario-file schema: where the atom lives and which
/// massf_cli run-control flag (if any) sets the same knob. The table is
/// the single source of truth for strict parsing, the emitted template,
/// and the no-orphan-knobs cross-check test.
struct ScenarioSchemaKey {
  const char* block;  ///< "" = Experiment top level, else sub-block key
  const char* key;    ///< atom key inside the block
  const char* flag;   ///< equivalent run-control flag, or nullptr
};

/// The full scenario-file schema, in emission order.
std::span<const ScenarioSchemaKey> scenario_schema();

/// The error for the removed `sync` atom (and the removed campaign `sync`
/// axis), after the "line N: " prefix: the threaded executor has one
/// protocol, so there is nothing left to select.
inline constexpr const char* kSyncRemoved =
    "'sync' was removed: the threaded executor always uses channel clocks";

/// Serializes the options alone (a ScenarioSpec with defaults elsewhere).
DmlNode scenario_options_to_dml(const ScenarioOptions& options);

/// Parses an Experiment block into options; missing keys keep their
/// defaults, unknown keys are line-numbered errors (see ScenarioSpec
/// parsing below). Returns nullopt with `error` set on failure.
std::optional<ScenarioOptions> scenario_options_from_dml(
    const DmlNode& root, std::string* error = nullptr);

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
/// against the file's directory.
std::optional<ScenarioSpec> load_scenario_file(const std::string& path,
                                               std::string* error = nullptr);

/// Mapping-kind name round trip ("HPROF" <-> MappingKind::kHProf, etc.).
std::optional<MappingKind> mapping_kind_from_name(const std::string& name);

/// Registers every run-control flag (the scenario-file override surface)
/// on `flags`, exactly as massf_cli and massf_campaign expose them. Kept
/// next to the schema table so the two cannot drift.
void add_run_control_flags(FlagTable& flags);

/// Applies explicitly-set run-control flags over `spec` (file values keep
/// precedence for flags the user did not pass). Returns false with
/// `error` set on a malformed value or an inconsistent combination.
bool apply_run_control_flags(const FlagTable& flags, ScenarioSpec* spec,
                             std::string* error);

}  // namespace massf
