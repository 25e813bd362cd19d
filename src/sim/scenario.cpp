#include "sim/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "ckpt/ckpt.hpp"
#include "guard/watchdog.hpp"
#include "util/error.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "traffic/dataflow.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/warn.hpp"

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

ScenarioOptions paper_full_scale_single_as() {
  ScenarioOptions o;
  o.multi_as = false;
  o.num_routers = 20000;
  o.num_hosts = 10000;
  // The paper's 8000 clients + 2000 servers saturate its 10,000 hosts; we
  // carve the application hosts out of the client pool (the paper ran
  // applications on separate physical nodes outside the virtual network).
  o.num_clients = 7950;
  o.num_servers = 2000;
  o.num_engines = 90;
  o.num_app_hosts = 32;
  return o;
}

ScenarioOptions paper_full_scale_multi_as() {
  ScenarioOptions o = paper_full_scale_single_as();
  o.multi_as = true;
  o.num_as = 100;  // 100 ASes x 200 routers
  return o;
}

Scenario::Scenario(const ScenarioOptions& options) : opts_(options) {
  MASSF_CHECK(opts_.num_engines >= 1);
  opts_.cluster.num_engine_nodes = opts_.num_engines;
  opts_.mapping.num_engines = opts_.num_engines;
  opts_.mapping.cluster = opts_.cluster;

  if (opts_.multi_as) {
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
  const std::int32_t needed =
      opts_.num_clients + opts_.num_servers + opts_.num_bg_sources +
      (opts_.app == AppKind::kNone ? 0 : opts_.num_app_hosts);
  MASSF_CHECK(needed <= net_.num_hosts());
  // Background flows target the server pool, so sources need servers.
  MASSF_CHECK(opts_.num_bg_sources == 0 || opts_.num_servers > 0);

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

void Scenario::install_traffic(Engine& engine, NetSim& sim,
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
    BackgroundOptions bg = opts_.background;
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

  EngineOptions eo;
  eo.lookahead = lookahead_for(mapping.router_lp);
  eo.cost_per_event_s = opts_.cluster.cost_per_event_s;
  eo.sync_cost_s = opts_.cluster.sync_cost_s();
  eo.end_time = opts_.end_time;
  eo.load_bin = opts_.load_bin;
  eo.guard = opts_.guard;
  Engine engine(eo);

  NetSimOptions no = opts_.netsim;
  if (opts_.rebalance.enabled) no.collect_node_profile = true;
  NetSim sim(net_, *fp_, mapping.router_lp, engine, no);
  TrafficManager manager(sim);
  install_traffic(engine, sim, manager, /*profiling=*/false);
  manager.start(engine, sim);

  // Telemetry attaches to the measured run only (never the profiling run,
  // whose purpose is producing the mapping input, not observations).
  engine.set_registry(opts_.registry);
  engine.set_probe(opts_.probe);

  if (opts_.pre_run) opts_.pre_run(engine, sim);

  // Online rebalancing (DESIGN.md section 5f): the controller installs
  // itself as the engine's rebalance stage (barrier -> rebalance -> ckpt).
  std::unique_ptr<RebalanceController> rebalancer;
  if (opts_.rebalance.enabled) {
    rebalancer = std::make_unique<RebalanceController>(sim, opts_.cluster,
                                                       opts_.rebalance);
    rebalancer->arm(engine);
  }

  // Checkpoint/restore (DESIGN.md section 5e): the participants list is the
  // full inventory of state that can diverge from construction. The engine
  // section restores first — it rebuilds the pending queues the other
  // sections' cursors refer to.
  ckpt::Participants parts;
  if (opts_.ckpt.every_windows > 0 || !opts_.ckpt.restore_path.empty()) {
    Engine* eng = &engine;
    NetSim* net_sim = &sim;
    TrafficManager* mgr = &manager;
    parts.add(
        "engine", [eng](ckpt::Writer& w) { eng->save_state(w); },
        [eng](ckpt::Reader& r) { return eng->restore_state(r); });
    parts.add(
        "net", [net_sim](ckpt::Writer& w) { net_sim->save(w); },
        [net_sim](ckpt::Reader& r) { return net_sim->load(r); });
    parts.add(
        "traffic", [mgr](ckpt::Writer& w) { mgr->save(w); },
        [mgr](ckpt::Reader& r) { return mgr->load(r); });
    parts.add(
        "routing.fp", [this](ckpt::Writer& w) { fp_->save(w); },
        [this](ckpt::Reader& r) { return fp_->load(r); });
    if (rebalancer != nullptr) {
      RebalanceController* rc = rebalancer.get();
      parts.add(
          "lb.rebalance", [rc](ckpt::Writer& w) { rc->save(w); },
          [rc](ckpt::Reader& r) { return rc->load(r); });
    }
    if (opts_.probe != nullptr) {
      obs::WindowProbe* probe = opts_.probe;
      parts.add(
          "obs.probe", [probe](ckpt::Writer& w) { probe->save(w); },
          [probe](ckpt::Reader& r) { return probe->load(r); });
    }
  }
  if (opts_.ckpt.every_windows > 0) {
    MASSF_CHECK(!opts_.ckpt.path.empty() &&
                "CkptOptions::every_windows requires a path");
    engine.hooks().ckpt_every = opts_.ckpt.every_windows;
    engine.hooks().ckpt = [this, &parts](Engine& eng, SimTime) {
          const auto t0 = std::chrono::steady_clock::now();
          ckpt::Checkpoint ck;
          parts.save(ck);
          const std::vector<std::uint8_t> image = ck.serialize();
          std::string error;
          if (!ckpt::Checkpoint::write_bytes(opts_.ckpt.path, image, &error)) {
            MASSF_LOG(kError) << "checkpoint write failed: " << error;
            MASSF_THROW(ErrorCategory::kIo,
                        "checkpoint write to '" + opts_.ckpt.path +
                            "' failed: " + error);
          }
          const double write_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          if (opts_.registry != nullptr) {
            opts_.registry->counter("ckpt.writes").inc();
            opts_.registry->counter("ckpt.bytes")
                .inc(static_cast<std::uint64_t>(image.size()));
            opts_.registry->gauge("ckpt.write_ms").set(write_ms);
          }
          if (opts_.ckpt.stop_after) eng.request_stop();
        };
  }
  if (!opts_.ckpt.restore_path.empty()) {
    std::string error;
    const auto ck = ckpt::Checkpoint::read_file(opts_.ckpt.restore_path,
                                                &error);
    if (!ck) {
      MASSF_LOG(kError) << "checkpoint read failed: " << error;
      MASSF_THROW(ErrorCategory::kIo,
                  "cannot read checkpoint '" + opts_.ckpt.restore_path +
                      "': " + error);
    }
    if (!parts.restore(*ck, &error)) {
      MASSF_LOG(kError) << "checkpoint restore failed: " << error;
      MASSF_THROW(ErrorCategory::kIo,
                  "checkpoint restore from '" + opts_.ckpt.restore_path +
                      "' failed: " + error);
    }
  }

  ExperimentResult result;
  result.mapping = mapping;
  // Supervision (DESIGN.md section 5h): the watchdog samples the engine's
  // liveness telemetry for the duration of the run and applies the stall
  // policy — under kCancel a wedged run comes back with
  // last_run_cancelled() set instead of hanging the process.
  if (opts_.executor_shards > 1) {
    warn(ErrorCategory::kConfig,
         "executor_shards=" + std::to_string(opts_.executor_shards) +
             " requested, but scenario runs execute single-process for now: "
             "this is the ROADMAP.md \"Multi-process sharded execution\" "
             "follow-up (wiring NetSim-backed scenarios through "
             "shard::run_sharded needs the workload-rebuild closure over "
             "full scenario construction) — running unsharded; see also "
             "README \"Sharded runs\"");
  }
  {
    guard::Watchdog watchdog(engine, opts_.guard, opts_.registry);
    watchdog.arm();
    result.stats = opts_.executor_threads > 0
                       ? engine.run_threaded(opts_.executor_threads)
                       : engine.run();
    watchdog.disarm();
    last_guard_fired_ = watchdog.fired();
    last_run_cancelled_ = engine.run_cancelled();
  }
  result.metrics = compute_metrics(result.stats, opts_.cluster);
  result.counters = sim.totals();
  if (opts_.registry != nullptr) {
    sim.publish_metrics(*opts_.registry);
    manager.publish_metrics(*opts_.registry);
    if (opts_.probe != nullptr) opts_.probe->publish(*opts_.registry);
    opts_.registry->gauge("sim.load_imbalance")
        .set(result.metrics.load_imbalance);
    opts_.registry->gauge("sim.parallel_efficiency")
        .set(result.metrics.parallel_efficiency);
    if (rebalancer != nullptr) rebalancer->publish_metrics(*opts_.registry);
  }
  return result;
}

}  // namespace massf
