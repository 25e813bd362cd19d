#include "sim/scenario.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_set>

#include "fault/injector.hpp"
#include "guard/watchdog.hpp"
#include "util/error.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "traffic/dataflow.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace massf {

const char* app_kind_name(AppKind kind) {
  switch (kind) {
    case AppKind::kNone:
      return "none";
    case AppKind::kScaLapack:
      return "ScaLapack";
    case AppKind::kGridNpb:
      return "GridNPB";
  }
  return "?";
}

Scenario::Scenario(const ScenarioOptions& options) : opts_(options) {
  MASSF_CHECK(opts_.num_engines >= 1);
  opts_.cluster.num_engine_nodes = opts_.num_engines;
  opts_.mapping.num_engines = opts_.num_engines;
  opts_.mapping.cluster = opts_.cluster;

  if (opts_.multi_as) {
    // maBrite's AS-level graph needs a core, a regional and a stub AS, and
    // every AS needs two routers.
    MASSF_ENFORCE(opts_.num_as >= 3, ErrorCategory::kConfig,
                  "multi_as 1 needs as >= 3, but as is " +
                      std::to_string(opts_.num_as));
    MASSF_ENFORCE(opts_.num_routers / opts_.num_as >= 2,
                  ErrorCategory::kConfig,
                  "multi_as 1 needs routers / as >= 2, but routers " +
                      std::to_string(opts_.num_routers) + " / as " +
                      std::to_string(opts_.num_as) + " is " +
                      std::to_string(opts_.num_routers / opts_.num_as));
    MaBriteOptions mo;
    mo.num_as = opts_.num_as;
    mo.routers_per_as = opts_.num_routers / opts_.num_as;
    mo.num_hosts = opts_.num_hosts;
    mo.seed = opts_.seed;
    net_ = generate_multi_as(mo);
  } else {
    BriteOptions bo;
    bo.num_routers = opts_.num_routers;
    bo.num_hosts = opts_.num_hosts;
    bo.seed = opts_.seed;
    net_ = generate_flat(bo);
  }
  const std::string problem = net_.validate();
  MASSF_CHECK(problem.empty());

  select_hosts();

  // Dynamic BGP (DESIGN.md section 5c) runs iff a fault event perturbs it:
  // the forwarding plane routes on the static solver's tables either way,
  // so unperturbed speakers would add only UPDATE traffic and bgp.*
  // observations. Their hosts come after select_hosts(), so the traffic
  // endpoints stay where they were.
  if (opts_.faults.has_bgp_events()) {
    MASSF_ENFORCE(opts_.multi_as, ErrorCategory::kConfig,
                  "BGP fault events need a multi-AS network (multi_as 1), "
                  "and this scenario is single-AS");
    speaker_hosts_ = add_bgp_speaker_hosts(net_);
  }

  // Destination routers: the attachment points of every traffic endpoint
  // (acks and responses need the reverse direction too, which the same set
  // covers).
  std::vector<NodeId> dests;
  const auto add_dests = [&](std::span<const NodeId> hosts) {
    for (NodeId h : hosts) {
      dests.push_back(net_.nodes[static_cast<std::size_t>(h)].attach_router);
    }
  };
  add_dests(clients_);
  add_dests(servers_);
  add_dests(app_hosts_);
  add_dests(bg_sources_);
  add_dests(speaker_hosts_);
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());

  if (opts_.multi_as) {
    fp_ = std::make_unique<ForwardingPlane>(
        ForwardingPlane::build_multi_as(net_, dests));
  } else {
    fp_ = std::make_unique<ForwardingPlane>(
        ForwardingPlane::build_flat(net_, dests));
  }
}

void Scenario::select_hosts() {
  const std::int32_t app_hosts =
      opts_.app == AppKind::kNone ? 0 : opts_.num_app_hosts;
  const std::int32_t needed = opts_.num_clients + opts_.num_servers +
                              app_hosts + opts_.num_bg_sources;
  MASSF_ENFORCE(needed <= net_.num_hosts(), ErrorCategory::kConfig,
                "the scenario needs " + std::to_string(needed) +
                    " hosts (clients " + std::to_string(opts_.num_clients) +
                    " + servers " + std::to_string(opts_.num_servers) +
                    " + app_hosts " + std::to_string(app_hosts) +
                    " + background sources " +
                    std::to_string(opts_.num_bg_sources) +
                    ") but hosts is " +
                    std::to_string(net_.num_hosts()));
  // Background flows and HTTP clients target the server pool, so both
  // need servers.
  MASSF_ENFORCE(opts_.num_bg_sources == 0 || opts_.num_servers > 0,
                ErrorCategory::kConfig,
                std::to_string(opts_.num_bg_sources) +
                    " background sources need servers to target, but "
                    "servers is 0");
  MASSF_ENFORCE(opts_.num_clients == 0 || opts_.num_servers > 0,
                ErrorCategory::kConfig,
                std::to_string(opts_.num_clients) +
                    " clients need servers to request from, but servers "
                    "is 0");
  // ScaLapack's process grid is at least 2 x 2; the GridNPB mix splits its
  // hosts over three graphs of at least three.
  const std::int32_t min_app_hosts = opts_.app == AppKind::kScaLapack ? 4
                                     : opts_.app == AppKind::kGridNpb ? 9
                                                                      : 0;
  MASSF_ENFORCE(app_hosts >= min_app_hosts, ErrorCategory::kConfig,
                std::string("app ") + app_kind_name(opts_.app) +
                    " needs app_hosts >= " + std::to_string(min_app_hosts) +
                    ", but app_hosts is " + std::to_string(app_hosts));

  std::vector<NodeId> hosts(static_cast<std::size_t>(net_.num_hosts()));
  std::iota(hosts.begin(), hosts.end(), net_.num_routers);
  Rng rng = Rng(opts_.seed).fork("host-selection");
  rng.shuffle(hosts);

  auto it = hosts.begin();
  clients_.assign(it, it + opts_.num_clients);
  it += opts_.num_clients;
  servers_.assign(it, it + opts_.num_servers);
  it += opts_.num_servers;
  if (opts_.app != AppKind::kNone) {
    app_hosts_.assign(it, it + opts_.num_app_hosts);
    it += opts_.num_app_hosts;
  }
  bg_sources_.assign(it, it + opts_.num_bg_sources);
}

BgpSpeakers* Scenario::install_traffic(Engine& engine, NetSim& sim,
                                       TrafficManager& manager,
                                       bool profiling) const {
  (void)engine;
  HttpOptions http = opts_.http;
  http.seed = opts_.seed ^ 0x48545450;  // "HTTP"
  // The profiling run draws different traffic randomness than the measured
  // run: profiles must predict a *future* execution (paper Section 3.3),
  // not replay the identical one.
  if (profiling) http.seed ^= 0x50524F46;  // "PROF"
  if (opts_.num_clients > 0) {
    manager.add(TrafficKind::kHttp,
                std::make_unique<HttpWorkload>(clients_, servers_, http));
  }

  if (opts_.num_bg_sources > 0) {
    BackgroundOptions bg;
    bg.seed = opts_.seed ^ 0x42474644;  // "BGFD"
    if (profiling) bg.seed ^= 0x50524F46;  // "PROF"
    manager.add(TrafficKind::kBackground, std::make_unique<BackgroundWorkload>(
                                              bg_sources_, servers_, bg));
  }

  if (opts_.app == AppKind::kScaLapack) {
    manager.add(TrafficKind::kApp,
                std::make_unique<DataflowApp>(
                    make_scalapack(app_hosts_, opts_.scalapack),
                    /*start_at=*/milliseconds(10)));
  } else if (opts_.app == AppKind::kGridNpb) {
    const auto graphs = make_gridnpb_mix(app_hosts_, opts_.gridnpb);
    manager.add(TrafficKind::kApp,
                std::make_unique<DataflowApp>(merge_graphs(graphs),
                                              /*start_at=*/milliseconds(10)));
  }
  (void)sim;

  if (speaker_hosts_.empty()) return nullptr;
  auto speakers = std::make_unique<BgpSpeakers>(net_, speaker_hosts_,
                                                BgpDynamicOptions{});
  BgpSpeakers* out = speakers.get();
  manager.add(TrafficKind::kBgp, std::move(speakers));
  return out;
}

SimTime Scenario::lookahead_for(std::span<const LpId> router_lp) const {
  MASSF_CHECK(static_cast<NodeId>(router_lp.size()) == net_.num_routers);
  SimTime mll = kSimTimeMax;
  for (const NetLink& l : net_.links) {
    if (!net_.is_router(l.a) || !net_.is_router(l.b)) continue;
    if (router_lp[static_cast<std::size_t>(l.a)] !=
        router_lp[static_cast<std::size_t>(l.b)]) {
      mll = std::min(mll, l.latency);
    }
  }
  if (mll == kSimTimeMax) mll = milliseconds(10);
  return mll;
}

const TrafficProfile& Scenario::profile() {
  if (profile_) return *profile_;

  const std::vector<LpId> naive = naive_mapping(net_, opts_.num_engines);

  EngineOptions eo;
  eo.lookahead = lookahead_for(naive);
  eo.cost_per_event_s = opts_.cluster.cost_per_event_s;
  eo.sync_cost_s = opts_.cluster.sync_cost_s();
  eo.end_time = opts_.profile_end_time;
  Engine engine(eo);

  NetSimOptions no = opts_.netsim;
  no.collect_node_profile = true;
  NetSim sim(net_, *fp_, naive, engine, no);
  TrafficManager manager(sim);
  install_traffic(engine, sim, manager, /*profiling=*/true);
  manager.start(engine, sim);
  engine.run();

  profile_ = fold_profile(net_, sim.node_profile());
  MASSF_LOG(kDebug) << "profiling run complete";
  return *profile_;
}

Mapping Scenario::mapping_for(MappingKind kind) {
  MappingOptions mo = opts_.mapping;
  mo.kind = kind;
  mo.seed = opts_.seed ^ 0x4d415050;  // "MAPP"
  const TrafficProfile* prof =
      mapping_uses_profile(kind) ? &profile() : nullptr;
  std::vector<NodeId> placement;
  if (kind == MappingKind::kPlace) {
    placement.insert(placement.end(), clients_.begin(), clients_.end());
    placement.insert(placement.end(), servers_.begin(), servers_.end());
    placement.insert(placement.end(), app_hosts_.begin(), app_hosts_.end());
  }
  return compute_mapping(net_, mo, prof, placement);
}

ExperimentResult Scenario::run(const Mapping& mapping) {
  MASSF_CHECK(static_cast<NodeId>(mapping.router_lp.size()) ==
              net_.num_routers);

  // Faults leave links down in the shared forwarding plane. Put its
  // down-set back on the way out, returning or throwing, so every run (and
  // a later profiling run) starts from the plane construction built.
  struct RestorePlane {
    ForwardingPlane& fp;
    const std::unordered_set<LinkId> down;
    ~RestorePlane() { fp.restore_down_links(down); }
  } restore_plane{*fp_, fp_->down_links()};

  EngineOptions eo;
  eo.lookahead = lookahead_for(mapping.router_lp);
  eo.cost_per_event_s = opts_.cluster.cost_per_event_s;
  eo.sync_cost_s = opts_.cluster.sync_cost_s();
  eo.end_time = opts_.end_time;
  eo.load_bin = opts_.load_bin;
  eo.guard = opts_.guard;
  Engine engine(eo);

  NetSim sim(net_, *fp_, mapping.router_lp, engine, opts_.netsim);
  TrafficManager manager(sim);
  BgpSpeakers* speakers =
      install_traffic(engine, sim, manager, /*profiling=*/false);
  manager.start(engine, sim);

  // Telemetry attaches to the measured run only (never the profiling run,
  // whose purpose is producing the mapping input, not observations).
  engine.set_registry(opts_.registry);
  engine.set_probe(opts_.probe);

  // Faults (DESIGN.md section 5c): a fresh injector per run, so every
  // mapping's run sees the whole schedule.
  std::unique_ptr<FaultInjector> injector;
  if (!opts_.faults.empty()) {
    injector = std::make_unique<FaultInjector>(net_, *fp_);
    injector->set_bgp(speakers);
    injector->arm(engine, sim, opts_.faults);
  }
  if (opts_.pre_run) opts_.pre_run(engine, sim);

  ExperimentResult result;
  result.mapping = mapping;
  // Supervision (DESIGN.md section 5h): the watchdog samples the engine's
  // liveness telemetry for the duration of the run; a wedged threaded run
  // comes back with last_run_cancelled() set instead of hanging the
  // process.
  {
    guard::Watchdog watchdog(engine, opts_.guard, opts_.registry);
    watchdog.arm();
    result.stats = opts_.executor_threads > 0
                       ? engine.run_threaded(opts_.executor_threads)
                       : engine.run();
    watchdog.disarm();
    last_run_cancelled_ = engine.run_cancelled();
  }
  result.metrics = compute_metrics(result.stats, opts_.cluster);
  result.counters = sim.totals();
  if (opts_.netsim.collect_flow_records) {
    result.flow_records = sim.flow_records();
  }
  if (injector != nullptr) result.faults_injected = injector->faults_injected();
  // A cancelled run is a truncated prefix that run_mapping re-runs;
  // only a completed run publishes, so a recovered run's metrics equal an
  // uninterrupted run's.
  if (opts_.registry != nullptr && !last_run_cancelled_) {
    sim.publish_metrics(*opts_.registry);
    manager.publish_metrics(*opts_.registry);
    if (injector != nullptr) injector->publish_metrics(*opts_.registry);
    if (opts_.probe != nullptr) opts_.probe->publish(*opts_.registry);
    opts_.registry->gauge("sim.load_imbalance")
        .set(result.metrics.load_imbalance);
    opts_.registry->gauge("sim.parallel_efficiency")
        .set(result.metrics.parallel_efficiency);
  }
  return result;
}

}  // namespace massf
