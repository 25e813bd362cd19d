#include "fault/injector.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"
#include "util/error.hpp"

namespace massf {
namespace {

const char* kMetricNames[] = {
    "massf.fault.link_down",      "massf.fault.link_up",
    "massf.fault.router_crash",   "massf.fault.router_restore",
    "massf.fault.loss_burst",     "massf.fault.bgp_reset",
    "massf.fault.bgp_withdraw",   "massf.fault.bgp_announce",
};

constexpr double kReconvergeBounds[] = {0.01, 0.05, 0.1, 0.2, 0.5,
                                        1.0,  2.0,  5.0, 10.0};

}  // namespace

FaultInjector::FaultInjector(const Network& net, ForwardingPlane& fp,
                             const FaultInjectorOptions& options)
    : net_(&net), fp_(&fp), opts_(options) {
  MASSF_CHECK(opts_.ospf_convergence_delay >= 0);
}

std::string FaultInjector::bgp_problem(const FaultEvent& e) const {
  if (speakers_ == nullptr) {
    return "BGP events need dynamic BGP speakers (FaultInjector::set_bgp), "
           "and this run has none";
  }
  const std::int32_t num_as = net_->num_as();
  const bool reset = e.kind == FaultKind::kBgpReset;
  for (const AsId as : {e.target, reset ? e.peer : e.target}) {
    if (as < 0 || as >= num_as) {
      return "AS " + std::to_string(as) + " is out of range (the network has " +
             std::to_string(num_as) + " ASes)";
    }
  }
  if (reset && !speakers_->has_session(e.target, e.peer)) {
    return "ASes " + std::to_string(e.target) + " and " +
           std::to_string(e.peer) + " share no BGP session";
  }
  return "";
}

void FaultInjector::validate(const FaultSchedule& schedule) const {
  const auto num_links = static_cast<LinkId>(net_->links.size());
  for (const FaultEvent& e : schedule.events()) {
    std::string problem;
    switch (e.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kLossBurst:
        if (e.target < 0 || e.target >= num_links) {
          problem = "link " + std::to_string(e.target) +
                    " is out of range (the network has " +
                    std::to_string(num_links) + " links)";
        }
        break;
      case FaultKind::kRouterCrash:
      case FaultKind::kRouterRestore:
        if (e.target < 0 || !net_->is_router(e.target)) {
          problem = "node " + std::to_string(e.target) +
                    " is not a router (the network has " +
                    std::to_string(net_->num_routers) + " routers)";
        }
        break;
      case FaultKind::kBgpReset:
      case FaultKind::kBgpWithdraw:
      case FaultKind::kBgpAnnounce:
        problem = bgp_problem(e);
        break;
    }
    if (!problem.empty()) {
      MASSF_THROW(ErrorCategory::kConfig,
                  "fault '" + fault_event_text(e) + "': " + problem);
    }
  }
}

void FaultInjector::schedule_ospf(Engine& engine, NetSim& sim, LinkId link,
                                  SimTime when, bool up) {
  sim.link_model().schedule_link_state(engine, link, when, up);
  // After every earlier change due at the same time: equal-time changes
  // apply in schedule order, as the data plane's same-time events fire.
  const SimTime at = when + opts_.ospf_convergence_delay;
  const auto pos = std::upper_bound(
      pending_.begin(), pending_.end(), at,
      [](SimTime t, const PendingOspf& p) { return t < p.at; });
  pending_.insert(pos, {at, link, up, when});
}

void FaultInjector::arm(Engine& engine, NetSim& sim,
                        const FaultSchedule& schedule) {
  MASSF_CHECK(sim_ == nullptr && "arm() may be called once");
  validate(schedule);
  sim_ = &sim;

  for (const FaultEvent& e : schedule.events()) {
    ++injected_;
    ++count_[static_cast<std::size_t>(e.kind)];
    switch (e.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp: {
        const NetLink& l = net_->links[static_cast<std::size_t>(e.target)];
        const bool up = e.kind == FaultKind::kLinkUp;
        if (net_->is_router(l.a) && net_->is_router(l.b)) {
          schedule_ospf(engine, sim, e.target, e.at, up);
        } else {
          // Host access link: no routing choice exists — pure data plane.
          sim.link_model().schedule_link_state(engine, e.target, e.at, up);
        }
        break;
      }
      case FaultKind::kRouterCrash:
      case FaultKind::kRouterRestore: {
        const bool up = e.kind == FaultKind::kRouterRestore;
        // The router itself blackholes (kEvNodeState, which also drops the
        // crashed node's pending host app timers), and every incident
        // interface goes down with it.
        sim.schedule_node_state(engine, e.target, e.at, up);
        for (const Network::Incidence& inc : net_->incident(e.target)) {
          if (net_->is_router(inc.peer)) {
            schedule_ospf(engine, sim, inc.link, e.at, up);
          } else {
            sim.link_model().schedule_link_state(engine, inc.link, e.at, up);
          }
        }
        break;
      }
      case FaultKind::kLossBurst: {
        sim.link_model().schedule_loss_state(engine, e.target, e.at, e.rate);
        sim.link_model().schedule_loss_state(engine, e.target,
                                             e.at + e.duration, 0.0);
        break;
      }
      case FaultKind::kBgpReset: {
        speakers_->schedule_session_reset(engine, sim, e.target, e.peer,
                                          e.at, e.duration);
        bgp_reconverge_.push_back({e.at, -1});
        break;
      }
      case FaultKind::kBgpWithdraw:
      case FaultKind::kBgpAnnounce: {
        speakers_->schedule_origination(engine, sim, e.target, e.at,
                                        e.kind == FaultKind::kBgpAnnounce);
        bgp_reconverge_.push_back({e.at, -1});
        break;
      }
    }
  }
  std::sort(bgp_reconverge_.begin(), bgp_reconverge_.end(),
            [](const BgpReconvergence& a, const BgpReconvergence& b) {
              return a.at < b.at;
            });

  engine.barrier_hooks().push_back(
      [this](Engine&, SimTime window_start) { on_barrier(window_start); });
}

void FaultInjector::on_barrier(SimTime window_start) {
  // Workers are quiescent at a barrier, so mutating the shared routing
  // tables and reading speaker state is safe; barriers fall at identical
  // virtual times under both executors, so the applied changes, the BGP
  // samples and the derived settle times are deterministic.
  bool any = false;
  while (!pending_.empty() && pending_.front().at <= window_start) {
    const PendingOspf p = pending_.front();
    fp_->set_link_state(p.link, p.up);
    pending_.erase(pending_.begin());
    ospf_reconverge_s_.push_back(to_seconds(window_start - p.requested_at));
    any = true;
  }
  if (any) fp_->reconverge();

  if (speakers_ == nullptr) return;
  const SimTime change = speakers_->last_change();
  if (change <= last_bgp_change_seen_) return;
  last_bgp_change_seen_ = change;
  auto it = std::upper_bound(
      bgp_reconverge_.begin(), bgp_reconverge_.end(), change,
      [](SimTime t, const BgpReconvergence& r) { return t < r.at; });
  if (it == bgp_reconverge_.begin()) return;  // pre-fault churn (origination)
  --it;
  it->settle_s = std::max(it->settle_s, to_seconds(change - it->at));
}

void FaultInjector::publish_metrics(obs::Registry& registry) const {
  MASSF_CHECK(sim_ != nullptr && "publish_metrics() requires arm()");
  registry.counter("massf.fault.injected").inc(injected_);
  for (std::size_t k = 0; k < std::size(kMetricNames); ++k) {
    registry.counter(kMetricNames[k]).inc(count_[k]);
  }

  const NetSim::Counters totals = sim_->totals();
  registry.counter("massf.fault.packets_blackholed")
      .inc(totals.dropped_link_down + totals.dropped_node_down +
           totals.dropped_loss);
  registry.counter("massf.fault.flows_abandoned").inc(totals.flows_failed);
  registry.counter("massf.fault.app_timers_dropped")
      .inc(totals.app_timers_dropped);

  obs::Histogram& ospf =
      registry.histogram("massf.fault.ospf_reconverge_s", kReconvergeBounds);
  for (const double s : ospf_reconverge_s_) ospf.observe(s);
  obs::Histogram& bgp =
      registry.histogram("massf.fault.bgp_reconverge_s", kReconvergeBounds);
  for (const BgpReconvergence& r : bgp_reconverge_) {
    if (r.settle_s >= 0) bgp.observe(r.settle_s);
  }
}

}  // namespace massf
