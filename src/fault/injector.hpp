// Compiles a FaultSchedule into deterministic simulation events.
//
// The injector is armed once, before the run. Every fault is realized
// through the engine's existing deterministic channels:
//
//   link down/up    -> the data plane changes at the fault time; OSPF
//                      reconverges one convergence delay later, at a
//                      window barrier (router-router links only: host
//                      access links have no routing choice)
//   router crash    -> kEvNodeState blackhole at the router + all incident
//                      links down (router-router links reconverge as
//                      above; host access links are pure data-plane)
//   loss burst      -> kEvLossState on both directions of the link; drop
//                      decisions hash a per-slot counter with the fault
//                      seed, owned by the transmitting LP
//   bgp reset       -> BgpSpeakers::schedule_session_reset
//   bgp withdraw /  -> BgpSpeakers::schedule_origination (the AS withdraws
//   bgp announce       or re-announces its own prefix)
//
// A link failure has two timescales: the data plane loses the link at
// once (packets offered to it drop), while the control plane reroutes only
// after detection + LSA flooding + SPF. The routing tables are shared by
// every logical process, so the injector mutates them only at a window
// barrier, where all workers are quiescent.
//
// Because everything is pre-scheduled or applied at barriers, a given
// (schedule, seed) pair is bit-identical under the sequential and threaded
// executors — the property ScenarioCorpus.SequentialEqualsThreaded asserts
// for every corpus scenario, scenarios/bgp-chaos.dml included.
//
// Reconvergence accounting (the massf.fault.v1 metrics schema, DESIGN.md
// Section 5c):
//   - OSPF: per applied link-state change, barrier-apply time minus the
//     data-plane change time.
//   - BGP: the injector samples BgpSpeakers::last_change() at every
//     barrier; each observed route-table change is attributed to the
//     latest BGP-visible fault at or before it, and that fault's settle
//     time is the latest change attributed to it minus its start time.
#pragma once

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/netsim.hpp"
#include "obs/metrics.hpp"
#include "routing/bgp_dynamic.hpp"
#include "routing/forwarding.hpp"

namespace massf {

struct FaultInjectorOptions {
  /// OSPF detection + flooding + SPF delay applied to every link-state
  /// fault (tens of milliseconds to seconds in real deployments).
  SimTime ospf_convergence_delay = milliseconds(200);
};

class FaultInjector {
 public:
  FaultInjector(const Network& net, ForwardingPlane& fp,
                const FaultInjectorOptions& options = {});

  /// Optional: enables the BGP events (reset, withdraw, announce) and BGP
  /// reconvergence tracking.
  void set_bgp(BgpSpeakers* speakers) { speakers_ = speakers; }

  /// Compiles `schedule` into engine events and installs the barrier
  /// hook. Call once, before the run. A schedule the network cannot carry
  /// — a link id out of range, a crash or restore aimed at a non-router,
  /// a BGP event without set_bgp(), an AS out of range, a reset between
  /// ASes that share no session — throws a kConfig EngineError naming the
  /// event, before anything is scheduled.
  void arm(Engine& engine, NetSim& sim, const FaultSchedule& schedule);

  // ---- post-run queries ---------------------------------------------------

  std::uint64_t faults_injected() const { return injected_; }

  /// Per applied OSPF change: reconvergence time in seconds.
  const std::vector<double>& ospf_reconvergence_s() const {
    return ospf_reconverge_s_;
  }

  /// Per BGP-visible fault event: (event time, settle seconds). Settle is
  /// -1 when no route change was attributed to the event.
  struct BgpReconvergence {
    SimTime at = 0;
    double settle_s = -1;
  };
  const std::vector<BgpReconvergence>& bgp_reconvergence() const {
    return bgp_reconverge_;
  }

  /// Publishes the `massf.fault.*` metrics (schema massf.fault.v1):
  /// injection counters per kind, packets blackholed, flows abandoned, and
  /// the reconvergence histograms. Reads drop totals from the NetSim the
  /// injector was armed with.
  void publish_metrics(obs::Registry& registry) const;

 private:
  /// An OSPF change waiting for its barrier: `at` is the data-plane change
  /// time `requested_at` plus the convergence delay.
  struct PendingOspf {
    SimTime at;
    LinkId link;
    bool up;
    SimTime requested_at;
  };

  void validate(const FaultSchedule& schedule) const;
  /// What makes BGP event `e` impossible on this run ("" = nothing).
  std::string bgp_problem(const FaultEvent& e) const;
  /// Router-router link: data plane at `when`, OSPF one delay later.
  void schedule_ospf(Engine& engine, NetSim& sim, LinkId link, SimTime when,
                     bool up);
  void on_barrier(SimTime window_start);

  const Network* net_;
  ForwardingPlane* fp_;
  FaultInjectorOptions opts_;
  BgpSpeakers* speakers_ = nullptr;
  NetSim* sim_ = nullptr;

  std::uint64_t injected_ = 0;
  std::uint64_t count_[8] = {};  ///< per FaultKind

  std::vector<PendingOspf> pending_;  ///< sorted by .at; pre-run + hook only
  std::vector<double> ospf_reconverge_s_;
  std::vector<BgpReconvergence> bgp_reconverge_;  ///< sorted by .at
  SimTime last_bgp_change_seen_ = -1;
};

}  // namespace massf
