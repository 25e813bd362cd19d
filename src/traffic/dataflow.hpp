// Generic cyclic-dataflow application skeleton.
//
// The paper's foreground workloads are real Grid applications (ScaLapack
// and the GridNPB 3.0 workflow benchmarks HC/VP/MB). The simulator observes
// applications only through the traffic they inject, so we model each as a
// cyclic dataflow graph: tasks pinned to hosts, each firing when all its
// input transfers arrive, spending a compute delay, then starting its
// output transfers. GridNPB itself is defined as exactly such a dataflow
// composition, and ScaLapack's block-cyclic communication maps onto a
// row/column exchange pattern (see apps.hpp for the concrete shapes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/manager.hpp"
#include "util/sim_time.hpp"

namespace massf {

struct DataflowTask {
  NodeId host = kInvalidNode;
  SimTime compute = 0;     ///< delay between inputs-ready and outputs-sent
  bool initial = false;    ///< fires unconditionally at t = start_at
};

struct DataflowEdge {
  std::int32_t src_task = 0;
  std::int32_t dst_task = 0;
  std::uint32_t bytes = 0;
};

struct DataflowGraph {
  std::string name;
  std::vector<DataflowTask> tasks;
  std::vector<DataflowEdge> edges;
};

class VmHosts;

class DataflowApp final : public TrafficComponent {
 public:
  DataflowApp(DataflowGraph graph, SimTime start_at);

  /// Optional: route task computation through a virtual-host CPU scheduler
  /// instead of fixed delays — a task's compute then stretches when it
  /// shares its host. The VmHosts must be registered with the same
  /// TrafficManager (kind kVm), cover every task host, and must not be
  /// shared with another component (this app installs its done callback).
  /// Call before start().
  void use_vm(VmHosts* vm);

  void start(Engine& engine, NetSim& sim) override;
  void on_flow_complete(Engine& engine, NetSim& sim, FlowId flow,
                        NodeId src_host, NodeId dst_host,
                        std::uint32_t tag) override;
  void on_timer(Engine& engine, NetSim& sim, NodeId host,
                std::uint64_t payload, std::uint64_t c) override;

  /// Total task firings so far (progress indicator).
  std::uint64_t firings() const;
  const DataflowGraph& graph() const { return graph_; }

 private:
  void fire(Engine& engine, NetSim& sim, std::int32_t task);
  void maybe_schedule_compute(Engine& engine, NetSim& sim, std::int32_t task);

  DataflowGraph graph_;
  SimTime start_at_;
  VmHosts* vm_ = nullptr;
  std::vector<std::int32_t> in_degree_;
  /// Input transfers received and not yet consumed by a firing. Inputs from
  /// a future iteration can land while the current compute delay is still
  /// pending, so this is a credit counter, not a countdown. All per-task
  /// state is owned by the LP of the task's host (flow completions and
  /// timers both land there).
  std::vector<std::int32_t> received_;
  std::vector<char> in_compute_;
  std::vector<std::uint64_t> fired_;
};

}  // namespace massf
