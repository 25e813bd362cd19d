// The experiment facade: one object owning the full pipeline
//   topology generation -> routing -> (profiling run) -> mapping ->
//   packet-level simulation -> metrics,
// exactly the loop the paper's evaluation executes for every combination
// of {network, application, mapping approach}. All benches and most
// examples drive this class.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/metrics.hpp"
#include "guard/options.hpp"
#include "lb/mapping.hpp"
#include "lb/profile.hpp"
#include "lb/rebalance.hpp"
#include "net/netsim.hpp"
#include "routing/forwarding.hpp"
#include "topology/brite.hpp"
#include "topology/mabrite.hpp"
#include "traffic/apps.hpp"
#include "traffic/background.hpp"
#include "traffic/http.hpp"

namespace massf {

namespace obs {
class Registry;
class WindowProbe;
}  // namespace obs

enum class AppKind { kNone, kScaLapack, kGridNpb };

const char* app_kind_name(AppKind kind);

/// Checkpoint/restore orchestration for the measured run (format
/// massf.ckpt.v1, DESIGN.md section 5e). With `every_windows > 0` the run
/// writes the full simulation state to `path` every that many
/// synchronization windows (optionally stopping at the first write); with
/// `restore_path` set the run rebuilds the stack as usual, then overwrites
/// the mutable state from the file before executing — resuming the
/// interrupted run with a bit-identical event trace and final statistics.
struct CkptOptions {
  std::uint64_t every_windows = 0;  ///< 0 = checkpointing off
  std::string path;                 ///< file written at each firing
  bool stop_after = false;          ///< clean stop once the file is written
  std::string restore_path;         ///< when set, restore before running
};

struct ScenarioOptions {
  bool multi_as = false;

  // ---- scale -------------------------------------------------------------
  std::int32_t num_routers = 2000;  ///< total routers (paper full: 20000)
  std::int32_t num_hosts = 1000;    ///< total hosts (paper full: 10000)
  std::int32_t num_as = 20;         ///< multi-AS only (paper full: 100)

  // ---- traffic -----------------------------------------------------------
  std::int32_t num_clients = 400;  ///< HTTP clients (paper full: 8000)
  std::int32_t num_servers = 100;  ///< HTTP servers (paper full: 2000)
  HttpOptions http;
  /// Long-lived background flows toward the HTTP servers (0 = none). With
  /// netsim.link_model.kind == kHybrid these ride the analytic fluid fast
  /// path; under the packet model they fall back to packet TCP.
  std::int32_t num_bg_sources = 0;
  BackgroundOptions background;
  AppKind app = AppKind::kNone;
  std::int32_t num_app_hosts = 16;
  ScaLapackOptions scalapack;
  GridNpbOptions gridnpb;

  // ---- simulated cluster ---------------------------------------------------
  std::int32_t num_engines = 16;  ///< paper full: 90
  ClusterModel cluster;           ///< num_engine_nodes is overridden

  // ---- run control ---------------------------------------------------------
  /// 0 = sequential reference executor; > 0 = threaded executor with that
  /// many workers (identical simulation results, different wall clock).
  std::int32_t executor_threads = 0;
  /// Multi-process executor width (DESIGN.md section 5j). Scenario runs
  /// accept the knob for campaign sweeps but execute single-process for
  /// now (sharding a NetSim workload needs a deterministic workload
  /// builder — tracked in ROADMAP.md); > 1 warns (config category) and
  /// falls back. The sharded golden/bench paths use it for real.
  std::int32_t executor_shards = 1;
  SimTime end_time = seconds(10);
  SimTime profile_end_time = seconds(3);
  /// Virtual-time bin for per-engine load traces (0 = off).
  SimTime load_bin = 0;
  std::uint64_t seed = 42;
  NetSimOptions netsim;
  MappingOptions mapping;  ///< kind/num_engines/cluster are overridden
  CkptOptions ckpt;        ///< measured-run checkpointing (off by default)
  /// Supervision for the measured run (DESIGN.md section 5h): when
  /// enabled, a guard::Watchdog is armed around the engine run and the
  /// engine maintains liveness telemetry. Off by default; MASSF_GUARD
  /// flips the process default.
  guard::GuardOptions guard = guard::default_guard_options();
  /// Online LP rebalancing during the measured run (off by default; forces
  /// collect_node_profile on when enabled). DESIGN.md section 5f.
  RebalanceOptions rebalance;

  /// Invoked on the measured run after traffic installation and before
  /// rebalance/checkpoint arming. The place for callers to attach extra
  /// machinery (e.g. a FaultInjector, which lives in a layer above this
  /// one) to the engine/NetSim pair the run is about to execute.
  std::function<void(Engine&, NetSim&)> pre_run;

  // ---- telemetry (obs/) ----------------------------------------------------
  /// When set, the measured run publishes engine/net/traffic/sim metrics
  /// into this registry (null-sink default: no telemetry, no overhead).
  obs::Registry* registry = nullptr;
  /// When set, attached to the measured run's engine for per-window records.
  obs::WindowProbe* probe = nullptr;
};

/// Paper-scale option presets.
ScenarioOptions paper_full_scale_single_as();
ScenarioOptions paper_full_scale_multi_as();

struct ExperimentResult {
  Mapping mapping;
  RunStats stats;
  SimulationMetrics metrics;
  NetSim::Counters counters;
};

class Scenario {
 public:
  explicit Scenario(const ScenarioOptions& options);

  const ScenarioOptions& options() const { return opts_; }
  const Network& network() const { return net_; }
  const ForwardingPlane& forwarding() const { return *fp_; }

  std::span<const NodeId> client_hosts() const { return clients_; }
  std::span<const NodeId> server_hosts() const { return servers_; }
  std::span<const NodeId> app_hosts() const { return app_hosts_; }
  std::span<const NodeId> background_sources() const { return bg_sources_; }

  /// Traffic profile from the (cached) profiling run with the naive
  /// mapping.
  const TrafficProfile& profile();

  /// Mapping under the given approach; PROF-family mappings trigger the
  /// profiling run on first use.
  Mapping mapping_for(MappingKind kind);

  /// Full simulation under a mapping.
  ExperimentResult run(const Mapping& mapping);
  ExperimentResult run(MappingKind kind) { return run(mapping_for(kind)); }

  /// Replaces the checkpoint options for subsequent run() calls, so one
  /// Scenario can execute the interrupted phase and the restored phase
  /// (same topology, host selection, and cached profile) back to back.
  void set_ckpt(const CkptOptions& ckpt) { opts_.ckpt = ckpt; }

  /// Run-control mutators for subsequent run() calls — the degradation
  /// ladder (guard/guarded_run.hpp) re-runs one Scenario under
  /// progressively safer configurations without rebuilding the topology.
  void set_executor_threads(std::int32_t threads) {
    opts_.executor_threads = threads;
  }
  void set_guard(const guard::GuardOptions& guard) { opts_.guard = guard; }

  /// True when the last run() was cancelled by the watchdog (stall).
  bool last_run_cancelled() const { return last_run_cancelled_; }
  /// True when the watchdog fired during the last run().
  bool last_guard_fired() const { return last_guard_fired_; }

  /// Replaces the pre-run callback (ScenarioOptions::pre_run) for
  /// subsequent run() calls — needed by callers whose attachments (e.g. a
  /// FaultInjector) require the constructed network/forwarding plane.
  void set_pre_run(std::function<void(Engine&, NetSim&)> fn) {
    opts_.pre_run = std::move(fn);
  }

  /// Mutable forwarding plane, for machinery that rewires routes during
  /// the run (FailoverController behind a FaultInjector).
  ForwardingPlane& forwarding_mut() { return *fp_; }

  /// Conservative lookahead of a router->engine assignment: the minimum
  /// latency over links whose endpoints land on different engines (host
  /// links never do). Falls back to 10 ms when nothing crosses.
  SimTime lookahead_for(std::span<const LpId> router_lp) const;

 private:
  void select_hosts();
  void install_traffic(Engine& engine, NetSim& sim, TrafficManager& manager,
                       bool profiling) const;

  ScenarioOptions opts_;
  bool last_run_cancelled_ = false;
  bool last_guard_fired_ = false;
  Network net_;
  std::unique_ptr<ForwardingPlane> fp_;
  std::vector<NodeId> clients_, servers_, app_hosts_, bg_sources_;
  std::optional<TrafficProfile> profile_;
};

}  // namespace massf
