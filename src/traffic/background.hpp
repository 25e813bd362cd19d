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
  std::uint64_t seed = 1;
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
    std::uint64_t fluid = 0;
  };

  // Completion and failure handlers run on foreign LPs (the receiver's,
  // or a window-boundary hook for fluid flows), so they must not touch
  // per-source state: they count the outcome and schedule a timer back to
  // the source host, whose own LP starts the next transfer.
  void issue_flow(Engine& engine, NetSim& sim, std::uint32_t source_idx);

  std::vector<Source> sources_;
  std::vector<NodeId> servers_;
  Rng base_rng_;
  /// Outcomes, one cell per LP, counted where they happen: a packet
  /// completion in its receiver's cell on the receiver's LP, a packet
  /// failure in its source's cell on the source's LP, and a fluid outcome
  /// at a window boundary (every LP quiescent) in the cell of the same
  /// host. So one thread at a time writes a cell; publish_metrics sums.
  std::vector<std::uint64_t> completed_, failed_;
};

}  // namespace massf
