// Long-lived background-flow workload: each source runs a think/transfer
// loop pushing one-way bulk transfers to a randomly chosen server. Flows
// are issued through NetSim::start_background_flow, so under the hybrid
// link model they ride the analytic fluid fast path (no per-packet
// events); under the packet model the same scenario falls back to packet
// TCP — that pairing is the fidelity-comparison knob the bench uses.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/manager.hpp"
#include "util/rng.hpp"

namespace massf {

struct BackgroundOptions {
  double think_time_mean_s = 5.0;
  /// Mean transfer size (exponential). Background flows are meant to be
  /// long-lived, so the default is 20x the HTTP file mean.
  double flow_mean_bytes = 1e6;
  std::uint64_t seed = 1;
  /// First transfers are staggered over [0, think_time_mean_s).
  bool staggered_start = true;
};

class BackgroundWorkload final : public TrafficComponent {
 public:
  BackgroundWorkload(std::vector<NodeId> sources, std::vector<NodeId> servers,
                     const BackgroundOptions& options);

  void start(Engine& engine, NetSim& sim) override;
  void on_flow_complete(Engine& engine, NetSim& sim, FlowId flow,
                        NodeId src_host, NodeId dst_host,
                        std::uint32_t tag) override;
  void on_flow_failed(Engine& engine, NetSim& sim, FlowId flow,
                      NodeId src_host, NodeId dst_host,
                      std::uint32_t tag) override;
  void on_timer(Engine& engine, NetSim& sim, NodeId host,
                std::uint64_t payload, std::uint64_t c) override;

  std::uint64_t flows_issued() const;
  std::uint64_t flows_completed() const;
  std::uint64_t flows_failed() const;
  /// Flows the link model carried analytically (vs packet fallback).
  std::uint64_t fluid_carried() const;

  /// Publishes `traffic.bg.*` counters into `registry`.
  void publish_metrics(obs::Registry& registry) const override;

 private:
  struct Source {
    NodeId host;
    Rng rng;  ///< owned by the source's LP: touched only in on_timer/start
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t fluid = 0;
  };

  // Completion and failure handlers run on foreign LPs (the receiver's,
  // or a window-boundary hook for fluid flows), so they must not touch
  // per-source state. They only schedule a timer back to the source host
  // carrying one of these outcome bits; the source's own LP does the
  // counting and issues the next transfer.
  static constexpr std::uint64_t kTimerCompletedBit = 1ULL << 32;
  static constexpr std::uint64_t kTimerFailedBit = 1ULL << 33;

  void issue_flow(Engine& engine, NetSim& sim, std::uint32_t source_idx);

  std::vector<Source> sources_;
  std::vector<NodeId> servers_;
  BackgroundOptions opts_;
  Rng base_rng_;
};

}  // namespace massf
