#include "traffic/dataflow.hpp"

#include "traffic/vm.hpp"
#include "util/check.hpp"

namespace massf {

DataflowApp::DataflowApp(DataflowGraph graph, SimTime start_at)
    : graph_(std::move(graph)), start_at_(start_at) {
  const auto nt = graph_.tasks.size();
  MASSF_CHECK(nt > 0);
  in_degree_.assign(nt, 0);
  for (const DataflowEdge& e : graph_.edges) {
    MASSF_CHECK(e.src_task >= 0 &&
                static_cast<std::size_t>(e.src_task) < nt);
    MASSF_CHECK(e.dst_task >= 0 &&
                static_cast<std::size_t>(e.dst_task) < nt);
    MASSF_CHECK(e.bytes > 0);
    ++in_degree_[static_cast<std::size_t>(e.dst_task)];
  }
  received_.assign(nt, 0);
  in_compute_.assign(nt, 0);
  fired_.assign(nt, 0);
}

void DataflowApp::use_vm(VmHosts* vm) {
  MASSF_CHECK(vm != nullptr);
  vm_ = vm;
  vm_->set_task_done([this](Engine& engine, NetSim& sim, NodeId host,
                            std::uint64_t cookie) {
    const auto task = static_cast<std::int32_t>(cookie);
    MASSF_CHECK(graph_.tasks[static_cast<std::size_t>(task)].host == host);
    fire(engine, sim, task);
  });
}

void DataflowApp::start(Engine& engine, NetSim& sim) {
  bool any_initial = false;
  for (std::size_t t = 0; t < graph_.tasks.size(); ++t) {
    if (graph_.tasks[t].initial) {
      any_initial = true;
      sim.schedule_app_timer(engine, graph_.tasks[t].host,
                             start_at_ + graph_.tasks[t].compute,
                             make_timer(TrafficKind::kApp, t));
    }
  }
  MASSF_CHECK(any_initial && "dataflow graph needs at least one initial task");
}

void DataflowApp::on_timer(Engine& engine, NetSim& sim, NodeId host,
                           std::uint64_t payload, std::uint64_t) {
  const auto task = static_cast<std::int32_t>(payload);
  MASSF_CHECK(graph_.tasks[static_cast<std::size_t>(task)].host == host);
  fire(engine, sim, task);
}

void DataflowApp::fire(Engine& engine, NetSim& sim, std::int32_t task) {
  ++fired_[static_cast<std::size_t>(task)];
  in_compute_[static_cast<std::size_t>(task)] = 0;
  const NodeId src_host = graph_.tasks[static_cast<std::size_t>(task)].host;
  for (std::size_t e = 0; e < graph_.edges.size(); ++e) {
    const DataflowEdge& edge = graph_.edges[e];
    if (edge.src_task != task) continue;
    const NodeId dst_host =
        graph_.tasks[static_cast<std::size_t>(edge.dst_task)].host;
    if (dst_host == src_host) {
      // Local edge: deliver instantly via a timer-less shortcut — count it
      // as an immediately-satisfied input on the same LP.
      on_flow_complete(engine, sim, /*flow=*/0, src_host, dst_host,
                       make_tag(TrafficKind::kApp,
                                static_cast<std::uint32_t>(e)));
      continue;
    }
    sim.start_flow(engine, engine.now(), src_host, dst_host, edge.bytes,
                   make_tag(TrafficKind::kApp, static_cast<std::uint32_t>(e)));
  }
  // Inputs for the next iteration may already be buffered.
  maybe_schedule_compute(engine, sim, task);
}

void DataflowApp::maybe_schedule_compute(Engine& engine, NetSim& sim,
                                         std::int32_t task) {
  const auto t = static_cast<std::size_t>(task);
  if (in_compute_[t] || in_degree_[t] == 0) return;
  if (received_[t] < in_degree_[t]) return;
  received_[t] -= in_degree_[t];
  in_compute_[t] = 1;
  if (vm_ != nullptr) {
    // Processor-sharing compute: `compute` is the duration on an otherwise
    // idle host, so the work is compute_seconds * capacity operations.
    vm_->submit(engine, sim, graph_.tasks[t].host,
                to_seconds(graph_.tasks[t].compute) * vm_->capacity_ops(),
                static_cast<std::uint64_t>(task));
    return;
  }
  sim.schedule_app_timer(engine, graph_.tasks[t].host,
                         engine.now() + graph_.tasks[t].compute,
                         make_timer(TrafficKind::kApp,
                                    static_cast<std::uint64_t>(task)));
}

void DataflowApp::on_flow_complete(Engine& engine, NetSim& sim, FlowId,
                                   NodeId, NodeId dst_host,
                                   std::uint32_t tag) {
  const std::uint32_t e = tag_payload(tag);
  MASSF_CHECK(e < graph_.edges.size());
  const std::int32_t task = graph_.edges[e].dst_task;
  const DataflowTask& t = graph_.tasks[static_cast<std::size_t>(task)];
  MASSF_CHECK(t.host == dst_host);

  ++received_[static_cast<std::size_t>(task)];
  maybe_schedule_compute(engine, sim, task);
}

std::uint64_t DataflowApp::firings() const {
  std::uint64_t total = 0;
  for (std::uint64_t f : fired_) total += f;
  return total;
}

}  // namespace massf
