// Virtual compute resources: a proportional-share CPU model per host.
//
// The MicroGrid "soft real-time scheduler ... emulate[s] virtual computer
// resources, allocating CPU proportionately" (paper Section 2.1): an
// application task's computation takes longer when it shares its host with
// other tasks. This module models each virtual host as a processor-sharing
// queue: a task submitted with W operations on a host of capacity C
// ops/sec progresses at C/n while n tasks are resident. Completion order
// and times are exact (event-driven, no discretization).
//
// All per-host state lives on the host's LP; the module reschedules its
// own completion timers with an epoch counter (stale timers are ignored),
// the same pattern the TCP RTO uses.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "traffic/manager.hpp"

namespace massf {

class VmHosts final : public TrafficComponent {
 public:
  /// Invoked on the host's LP when a task's work is done.
  using TaskDoneFn = std::function<void(Engine&, NetSim&, NodeId host,
                                        std::uint64_t cookie)>;

  /// All `hosts` get the same capacity in operations per second.
  VmHosts(std::span<const NodeId> hosts, double ops_per_second);

  /// Submits a task of `ops` operations to `host` (must be registered).
  /// Callable before the run or from a handler on the host's LP.
  void submit(Engine& engine, NetSim& sim, NodeId host, double ops,
              std::uint64_t cookie);

  void set_task_done(TaskDoneFn fn) { on_done_ = std::move(fn); }

  /// Number of tasks currently resident on `host`.
  std::size_t load(NodeId host) const;

  double capacity_ops() const { return capacity_; }

  // ---- TrafficComponent ---------------------------------------------------
  void start(Engine&, NetSim&) override {}
  void on_timer(Engine& engine, NetSim& sim, NodeId host,
                std::uint64_t payload, std::uint64_t c) override;

 private:
  struct Task {
    double remaining_ops;
    std::uint64_t cookie;
  };
  struct HostState {
    std::vector<Task> tasks;
    SimTime last_update = 0;
    std::uint64_t timer_epoch = 0;
  };

  HostState& state(NodeId host);
  /// Advances all resident tasks to `now` under processor sharing.
  void advance(HostState& hs, SimTime now);
  /// Completes finished tasks and re-arms the next completion timer.
  void settle(Engine& engine, NetSim& sim, NodeId host, HostState& hs);

  double capacity_;
  std::unordered_map<NodeId, HostState> hosts_;
  TaskDoneFn on_done_;
};

}  // namespace massf
