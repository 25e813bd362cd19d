// Dynamic BGP4: the protocol itself running inside the packet simulation.
//
// The static solver (bgp.hpp) computes the fixed point the protocol
// converges to; this layer actually runs the protocol: one BGP speaker per
// AS originates its prefix and exchanges UPDATE messages (announcements
// and withdrawals) with its neighbors as TCP flows through the simulated
// network, applying the same import/export policies. This is what the
// paper means by "detailed BGP4 routing protocol" support, and it enables
// the validation studies proposed in the paper's future work — e.g. the
// BGP Beacon experiment (periodically announce/withdraw a prefix and watch
// the announcement propagate), one schedule_origination() call per toggle.
// Scenarios drive it through their fault schedule (bgp_withdraw,
// bgp_announce and bgp_reset events; fault/injector.hpp).
//
// Tests verify that after convergence the dynamic tables equal the static
// solver's — protocol dynamics and fixed-point computation agree.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "routing/bgp.hpp"
#include "traffic/manager.hpp"

namespace massf {

/// Appends one "route server" host per AS (attached to the AS's first
/// router) to carry BGP sessions, returns the speaker host ids indexed by
/// AS, and rebuilds adjacency. Call before constructing the ForwardingPlane.
std::vector<NodeId> add_bgp_speaker_hosts(Network& net,
                                          double access_bandwidth_bps = 1e9);

struct BgpDynamicOptions {
  /// Wire bytes charged per update in a batch (BGP UPDATE messages are
  /// small; batches model TCP segment coalescing).
  std::uint32_t bytes_per_update = 64;
  /// Virtual time at which speakers originate their own prefixes.
  SimTime originate_at = milliseconds(5);
  /// Min Route Advertisement Interval per session (RFC 4271 suggests 30 s
  /// for eBGP; simulators typically use much less). 0 disables: every
  /// trigger flushes immediately. With MRAI on, updates within the
  /// interval batch into one deferred announcement — fewer messages,
  /// slower convergence.
  SimTime mrai = 0;
};

struct BgpDynUpdate {
  AsId dest = -1;            ///< the prefix (one per AS)
  bool withdraw = false;
  std::vector<AsId> path;    ///< announced path [sender, ..., dest]
};

class BgpSpeakers final : public TrafficComponent {
 public:
  /// `speaker_hosts[as]` carries AS `as`'s BGP sessions. Policies derive
  /// from net.as_adjacency exactly as in the static solver.
  BgpSpeakers(const Network& net, std::vector<NodeId> speaker_hosts,
              const BgpDynamicOptions& options);

  // ---- TrafficComponent ---------------------------------------------------
  void start(Engine& engine, NetSim& sim) override;
  void on_flow_complete(Engine& engine, NetSim& sim, FlowId flow,
                        NodeId src_host, NodeId dst_host,
                        std::uint32_t tag) override;
  /// An UPDATE batch flow abandoned by TCP (possible under fault
  /// injection). The batch is lost; the session-reset machinery is the
  /// mechanism for recovering the lost state.
  void on_flow_failed(Engine& engine, NetSim& sim, FlowId flow,
                      NodeId src_host, NodeId dst_host,
                      std::uint32_t tag) override;
  void on_timer(Engine& engine, NetSim& sim, NodeId host,
                std::uint64_t payload, std::uint64_t c) override;

  // ---- post-run queries ---------------------------------------------------

  /// Best route adopted by `as` toward `dest`; next_hop_as == -1 when no
  /// route (or as == dest).
  BgpRoute best_route(AsId as, AsId dest) const;

  /// Adopted AS path [as, ..., dest]; empty when unreachable.
  std::vector<AsId> as_path(AsId as, AsId dest) const;

  std::uint64_t updates_sent() const;
  std::uint64_t batches_sent() const;

  // ---- churn counters (summed over speakers) ------------------------------

  /// Announcements received and accepted into adj-RIB-in (loop-rejected
  /// announcements count as withdrawals, matching RFC treat-as-withdraw).
  std::uint64_t announcements_received() const;
  /// Withdrawals received (explicit or implicit via loop rejection).
  std::uint64_t withdrawals_received() const;
  /// Best-route changes across all (speaker, prefix) pairs — the BGP churn
  /// a route-view monitor would observe.
  std::uint64_t route_changes() const;

  /// Publishes churn counters and the convergence instant into `registry`
  /// as `bgp.*` metrics (schema in DESIGN.md).
  void publish_metrics(obs::Registry& registry) const override;

  /// Virtual time of the last routing-table change anywhere — the
  /// convergence instant (-1 if nothing ever changed).
  SimTime last_change() const;

  /// Per-AS virtual time of the last change affecting `dest`'s prefix
  /// (what a beacon observation point measures); -1 if never changed.
  SimTime last_change_for(AsId as, AsId dest) const;

  // ---- experiments ----------------------------------------------------------

  /// True when `as` and `peer` are AS-adjacent, i.e. share a BGP session.
  bool has_session(AsId as, AsId peer) const;

  /// Beacon toggle (paper Section 7, after the real-world RIPE/PSG BGP
  /// Beacons): at `when` AS `as` withdraws its own prefix (`announce`
  /// false) or re-announces it (true). Call before the run.
  void schedule_origination(Engine& engine, NetSim& sim, AsId as,
                            SimTime when, bool announce);

  /// BGP session reset between `as` and `peer` (must be AS-adjacent): at
  /// `when` both endpoints tear the session down — each flushes the
  /// adj-RIB-in learned from the other (withdrawing routes through it and
  /// propagating the withdrawals), clears pending/adj-RIB-out state toward
  /// it, and bumps the per-session epoch so in-flight UPDATE batches from
  /// the old incarnation are discarded on arrival. At
  /// `when + reestablish_after` the session comes back and each side
  /// re-advertises its full table to the other, as a real speaker does
  /// after session establishment. Call before the run.
  void schedule_session_reset(Engine& engine, NetSim& sim, AsId as,
                              AsId peer, SimTime when,
                              SimTime reestablish_after);

  // ---- fault counters (summed over speakers) ------------------------------

  /// Session endpoint teardowns (2 per schedule_session_reset call).
  std::uint64_t session_resets() const;
  /// UPDATE batches discarded because their session epoch was stale.
  std::uint64_t stale_batches_dropped() const;
  /// UPDATE batch flows abandoned by TCP.
  std::uint64_t update_flows_failed() const;

 private:
  struct Candidate {
    bool valid = false;
    std::vector<AsId> path;  ///< [neighbor, ..., dest]
  };

  struct Speaker {
    std::vector<AsNeighbor> neighbors;
    /// adj-rib-in: candidates_[dest * num_neighbors + neighbor_index].
    std::vector<Candidate> rib_in;
    /// Best route per dest (next-hop index into `neighbors`, -1 = none).
    std::vector<std::int32_t> best;
    std::vector<std::vector<AsId>> best_path;  ///< per dest, [me,...,dest]
    /// adj-rib-out: announced_[dest * num_neighbors + n] — whether we last
    /// sent an announcement (vs nothing/withdrawal) to that neighbor.
    std::vector<char> rib_out;
    bool originated = false;
    std::vector<SimTime> last_change_for;  ///< per dest prefix
    /// Pending updates per neighbor, flushed into one batch per trigger.
    std::vector<std::vector<BgpDynUpdate>> pending;
    /// MRAI state per neighbor: when we may send next, and whether a
    /// deferred-flush timer is outstanding.
    std::vector<SimTime> next_send_ok;
    std::vector<char> mrai_timer_armed;
    /// Session state per neighbor: up/down, plus an epoch bumped on every
    /// teardown. Batches are stamped with the sender's epoch; the receiver
    /// drops batches whose epoch predates its own — in-flight updates from
    /// a torn-down session incarnation must not pollute the new one.
    std::vector<char> session_up;
    std::vector<std::uint32_t> session_epoch;
    // Statistics, owned by this speaker's LP (summed by the getters).
    std::uint64_t updates_sent = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t announce_rx = 0;
    std::uint64_t withdraw_rx = 0;
    std::uint64_t route_changes = 0;
    std::uint64_t session_resets = 0;
    std::uint64_t stale_batches = 0;
    std::uint64_t update_flows_failed = 0;
    SimTime last_change = -1;
  };

  // Batches in flight between speakers. Written by the sender's LP, read
  // by the receiver's LP after the window barrier; the mutex makes the
  // cross-thread access well-defined under the threaded executor.
  struct Batch {
    std::uint32_t epoch = 0;  ///< sender's session epoch at send time
    std::vector<BgpDynUpdate> updates;
  };
  struct Channel {
    std::mutex mu;
    std::deque<Batch> batches;
  };

  std::int32_t neighbor_index(AsId as, AsId neighbor) const;
  void originate(Engine& engine, NetSim& sim, AsId as);
  void withdraw_own(Engine& engine, NetSim& sim, AsId as);
  void process_batch(Engine& engine, NetSim& sim, AsId me, AsId from,
                     const std::vector<BgpDynUpdate>& batch);
  /// Recomputes the best route for (me, dest); if changed, records the
  /// change and queues export updates.
  void reselect(Engine& engine, NetSim& sim, AsId me, AsId dest);
  void queue_export(AsId me, AsId dest);
  void flush(Engine& engine, NetSim& sim, AsId me);
  /// Session teardown at `me`'s end: drop RIB-in from `peer`, reselect.
  void session_down(Engine& engine, NetSim& sim, AsId me, AsId peer);
  /// Session re-establishment at `me`'s end: full-table re-advertisement.
  void session_restore(Engine& engine, NetSim& sim, AsId me, AsId peer);

  const Network* net_;
  std::vector<NodeId> speaker_hosts_;
  BgpDynamicOptions opts_;
  std::int32_t num_as_;
  std::vector<Speaker> speakers_;
  std::vector<std::unique_ptr<Channel>> channels_;  ///< per sender AS
  std::vector<AsId> host_as_;  ///< speaker host -> AS (dense by host order)
};

}  // namespace massf
