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
#include "fault/fault.hpp"
#include "guard/options.hpp"
#include "lb/mapping.hpp"
#include "lb/profile.hpp"
#include "net/netsim.hpp"
#include "routing/bgp_dynamic.hpp"
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
  SimTime end_time = seconds(10);
  SimTime profile_end_time = seconds(3);
  /// Virtual-time bin for per-engine load traces (0 = off).
  SimTime load_bin = 0;
  std::uint64_t seed = 42;
  NetSimOptions netsim;
  MappingOptions mapping;  ///< kind/num_engines/cluster are overridden
  /// Supervision for the measured run (DESIGN.md section 5h): when
  /// enabled, a guard::Watchdog is armed around the engine run and the
  /// engine maintains liveness telemetry. Off by default.
  guard::GuardOptions guard;
  /// Chaos schedule (DESIGN.md section 5c; empty = no faults). Every
  /// measured run arms a fresh FaultInjector with it, so each mapping's
  /// run sees the same faults on the same network. A schedule with a BGP
  /// event (bgp_reset, bgp_withdraw, bgp_announce) also runs dynamic BGP:
  /// one speaker per AS, in the profiling and the measured run alike; it
  /// needs multi_as.
  FaultSchedule faults;

  /// Invoked on the measured run after traffic installation and fault
  /// arming, for attachments a scenario file
  /// cannot express: bench_e2e attaches its own FaultInjector to the
  /// engine/NetSim pair the run is about to execute, and the supervision
  /// tests freeze an LP's clock (Engine::test_freeze_lp_clock).
  std::function<void(Engine&, NetSim&)> pre_run;

  // ---- telemetry (obs/) ----------------------------------------------------
  /// When set, the measured run publishes engine/net/traffic/sim metrics
  /// into this registry (null-sink default: no telemetry, no overhead).
  obs::Registry* registry = nullptr;
  /// When set, attached to the measured run's engine for per-window records.
  obs::WindowProbe* probe = nullptr;
};

struct ExperimentResult {
  Mapping mapping;
  RunStats stats;
  SimulationMetrics metrics;
  NetSim::Counters counters;
  std::uint64_t faults_injected = 0;  ///< events of ScenarioOptions::faults
  /// Every finished flow of the run (NetSim::flow_records); empty unless
  /// netsim.collect_flow_records is set.
  std::vector<FlowRecord> flow_records;
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

  /// Full simulation under a mapping. The run may rewire the forwarding
  /// plane (faults); on return or throw it is back to what construction
  /// built, so every run — and a later profiling run — starts alike.
  ExperimentResult run(const Mapping& mapping);
  ExperimentResult run(MappingKind kind) { return run(mapping_for(kind)); }

  /// Run-control mutator for subsequent run() calls — run_mapping
  /// (campaign/runner.hpp) re-runs a stalled mapping on the sequential
  /// executor without rebuilding the topology.
  void set_executor_threads(std::int32_t threads) {
    opts_.executor_threads = threads;
  }

  /// True when the last run() was cancelled by the watchdog (stall).
  bool last_run_cancelled() const { return last_run_cancelled_; }

  /// Replaces the pre-run callback (ScenarioOptions::pre_run) for
  /// subsequent run() calls, for attachments that need the constructed
  /// network and forwarding plane.
  void set_pre_run(std::function<void(Engine&, NetSim&)> fn) {
    opts_.pre_run = std::move(fn);
  }

  /// Mutable forwarding plane, for a pre-run FaultInjector that rewires
  /// routes during the run.
  ForwardingPlane& forwarding_mut() { return *fp_; }

  /// Conservative lookahead of a router->engine assignment: the minimum
  /// latency over links whose endpoints land on different engines (host
  /// links never do). Falls back to 10 ms when nothing crosses.
  SimTime lookahead_for(std::span<const LpId> router_lp) const;

 private:
  void select_hosts();
  /// Adds the scenario's workloads to `manager`; returns the BGP speakers
  /// when the run has them, else null.
  BgpSpeakers* install_traffic(Engine& engine, NetSim& sim,
                               TrafficManager& manager, bool profiling) const;

  ScenarioOptions opts_;
  bool last_run_cancelled_ = false;
  Network net_;
  std::unique_ptr<ForwardingPlane> fp_;
  std::vector<NodeId> clients_, servers_, app_hosts_, bg_sources_;
  /// One BGP speaker host per AS, indexed by AS; empty when the fault
  /// schedule has no BGP event.
  std::vector<NodeId> speaker_hosts_;
  std::optional<TrafficProfile> profile_;
};

}  // namespace massf
