// Deterministic fault schedules — the "chaos scenario" input format.
//
// A FaultSchedule is a list of timed fault events: link down/up, link flap
// trains, router crash/restore, loss bursts on a link, BGP session resets,
// and BGP beacon toggles (an AS withdrawing or re-announcing its prefix).
// Schedules are built programmatically or parsed from a small line-based
// text format (one event per line, key=value arguments):
//
//   # seconds are virtual time; '#' comments run to end of line
//   at 1.0  link_down link=3
//   at 4.0  link_up   link=3
//   at 2.0  flap      link=5 count=4 period=0.5 downtime=0.2
//   at 3.0  crash     router=7
//   at 6.0  restore   router=7
//   at 2.5  loss      link=2 duration=0.5 rate=0.05
//   at 5.0  bgp_reset as=1 peer=2 downtime=1.0
//   at 7.0  bgp_withdraw as=3
//   at 9.0  bgp_announce as=3
//
// The schedule itself is pure data. The FaultInjector (injector.hpp)
// compiles it into simulation events before the run; because every event
// is scheduled up front through the engine's deterministic channels, a
// given (schedule, seed) pair produces bit-identical results under the
// sequential and threaded executors.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "topology/network.hpp"
#include "util/sim_time.hpp"

namespace massf {

enum class FaultKind {
  kLinkDown,       ///< target = link
  kLinkUp,         ///< target = link
  kRouterCrash,    ///< target = router
  kRouterRestore,  ///< target = router
  kLossBurst,      ///< target = link; rate in [0,1) for `duration`
  kBgpReset,       ///< target = AS, peer = neighbor AS; down for `duration`
  kBgpWithdraw,    ///< target = AS; it withdraws its own prefix
  kBgpAnnounce,    ///< target = AS; it re-announces its own prefix
};

/// A single fault. `duration` and `rate` are meaningful only for the kinds
/// documented above; they are zero otherwise.
struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  std::int32_t target = -1;  ///< link, router, or AS id depending on kind
  std::int32_t peer = -1;    ///< kBgpReset: the neighbor AS
  SimTime duration = 0;      ///< kLossBurst: burst length; kBgpReset: downtime
  double rate = 0;           ///< kLossBurst: per-packet loss probability
};

const char* fault_kind_name(FaultKind kind);

/// One event as a line of the text format below (no newline).
std::string fault_event_text(const FaultEvent& event);

/// Builder + container for a chaos scenario. Events may be added in any
/// order; the injector sorts by time when compiling.
class FaultSchedule {
 public:
  FaultSchedule& link_down(SimTime at, LinkId link);
  FaultSchedule& link_up(SimTime at, LinkId link);
  /// `count` down/up cycles: down at start + i*period, up `downtime` later.
  FaultSchedule& flap_train(SimTime start, LinkId link, std::int32_t count,
                            SimTime period, SimTime downtime);
  FaultSchedule& router_crash(SimTime at, NodeId router);
  FaultSchedule& router_restore(SimTime at, NodeId router);
  FaultSchedule& loss_burst(SimTime at, LinkId link, SimTime duration,
                            double rate);
  FaultSchedule& bgp_reset(SimTime at, AsId as, AsId peer, SimTime downtime);
  FaultSchedule& bgp_withdraw(SimTime at, AsId as);
  FaultSchedule& bgp_announce(SimTime at, AsId as);

  /// Splices another schedule's events in (scenario files may combine an
  /// included fault file with embedded event lines).
  FaultSchedule& append(const FaultSchedule& other);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  /// True when an event acts on dynamic BGP (reset, withdraw, announce):
  /// only such a schedule needs BGP speakers.
  bool has_bgp_events() const;

  /// Serializes to the text format above (one line per event, sorted by
  /// time); parse_fault_schedule() round-trips it.
  std::string to_text() const;

 private:
  std::vector<FaultEvent> events_;
};

/// Parses the line-based scenario format. Returns std::nullopt on error
/// and, when `error` is non-null, a "line N: what" message (mirroring the
/// DML parser's error idiom).
std::optional<FaultSchedule> parse_fault_schedule(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace massf
