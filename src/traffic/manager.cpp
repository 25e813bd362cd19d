#include "traffic/manager.hpp"

#include "util/check.hpp"

namespace massf {

void TrafficComponent::on_flow_complete(Engine&, NetSim&, FlowId, NodeId,
                                        NodeId, std::uint32_t) {}
void TrafficComponent::on_flow_failed(Engine&, NetSim&, FlowId, NodeId,
                                      NodeId, std::uint32_t) {}
void TrafficComponent::on_timer(Engine&, NetSim&, NodeId, std::uint64_t,
                                std::uint64_t) {}
void TrafficComponent::publish_metrics(obs::Registry&) const {}

TrafficManager::TrafficManager(NetSim& sim) {
  sim.set_flow_complete([this](Engine& engine, NetSim& s, FlowId flow,
                               NodeId src, NodeId dst, std::uint32_t tag,
                               bool failed) {
    if (auto* c = component(tag_kind(tag))) {
      if (failed) {
        c->on_flow_failed(engine, s, flow, src, dst, tag);
      } else {
        c->on_flow_complete(engine, s, flow, src, dst, tag);
      }
    }
  });
  sim.set_app_timer([this](Engine& engine, NetSim& s, NodeId host,
                           std::uint64_t b, std::uint64_t c) {
    if (auto* comp = component(timer_kind(b))) {
      comp->on_timer(engine, s, host, timer_payload(b), c);
    }
  });
}

void TrafficManager::add(TrafficKind kind,
                         std::unique_ptr<TrafficComponent> component) {
  const auto idx = static_cast<std::size_t>(kind);
  MASSF_CHECK(idx > 0 && idx < components_.size());
  MASSF_CHECK(components_[idx] == nullptr);
  components_[idx] = std::move(component);
}

void TrafficManager::start(Engine& engine, NetSim& sim) {
  for (auto& c : components_) {
    if (c) c->start(engine, sim);
  }
}

void TrafficManager::publish_metrics(obs::Registry& registry) const {
  for (const auto& c : components_) {
    if (c) c->publish_metrics(registry);
  }
}

TrafficComponent* TrafficManager::component(TrafficKind kind) const {
  const auto idx = static_cast<std::size_t>(kind);
  if (idx >= components_.size()) return nullptr;
  return components_[idx].get();
}

}  // namespace massf
