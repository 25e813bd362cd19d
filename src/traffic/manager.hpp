// Traffic component multiplexing.
//
// NetSim exposes a single set of callbacks; the TrafficManager owns them
// and dispatches to registered components (background HTTP, foreground
// application skeletons, the online agent) by a component-kind field packed
// into the high bits of flow tags and timer payloads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "net/netsim.hpp"

namespace massf {

namespace obs {
class Registry;
}  // namespace obs

/// Component-kind ids (4 bits in flow tags, 8 bits in timer payloads).
enum class TrafficKind : std::uint32_t {
  kNone = 0,
  kHttp = 1,
  kApp = 2,     ///< foreground dataflow application
  kOnline = 3,  ///< live-traffic agent
  kBgp = 4,     ///< dynamic BGP4 session layer
  kVm = 5,      ///< virtual-host CPU scheduler
  kBackground = 8,  ///< long-lived background flows (flow-level fast path)
  kMax = 15,
};

/// Packs/unpacks the component kind into flow tags and timer payloads.
constexpr std::uint32_t make_tag(TrafficKind kind, std::uint32_t payload) {
  return (static_cast<std::uint32_t>(kind) << 28) | (payload & 0x0fffffffu);
}
constexpr TrafficKind tag_kind(std::uint32_t tag) {
  return static_cast<TrafficKind>(tag >> 28);
}
constexpr std::uint32_t tag_payload(std::uint32_t tag) {
  return tag & 0x0fffffffu;
}

constexpr std::uint64_t make_timer(TrafficKind kind, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(kind) << 56) |
         (payload & 0x00ffffffffffffffULL);
}
constexpr TrafficKind timer_kind(std::uint64_t b) {
  return static_cast<TrafficKind>(b >> 56);
}
constexpr std::uint64_t timer_payload(std::uint64_t b) {
  return b & 0x00ffffffffffffffULL;
}

/// A traffic source/sink. Handlers run on the LP owning the relevant host;
/// implementations must keep all mutable state per-host (or per-entity
/// owned by a single host) to stay race-free under the threaded executor.
class TrafficComponent {
 public:
  virtual ~TrafficComponent() = default;

  /// Called once before the run to create initial events.
  virtual void start(Engine& engine, NetSim& sim) = 0;

  virtual void on_flow_complete(Engine& engine, NetSim& sim, FlowId flow,
                                NodeId src_host, NodeId dst_host,
                                std::uint32_t tag);
  /// The sender abandoned the flow (path dead past the TCP retry bound).
  /// Runs on the *sender's* LP — implementations must only touch state
  /// owned by that LP, or defer to a timer/barrier. Default: ignore.
  virtual void on_flow_failed(Engine& engine, NetSim& sim, FlowId flow,
                              NodeId src_host, NodeId dst_host,
                              std::uint32_t tag);
  virtual void on_timer(Engine& engine, NetSim& sim, NodeId host,
                        std::uint64_t payload, std::uint64_t c);

  /// Publishes this component's counters into `registry` (called after the
  /// run, outside any handler). Default publishes nothing — the null-sink
  /// contract of the telemetry layer.
  virtual void publish_metrics(obs::Registry& registry) const;

};

class TrafficManager {
 public:
  /// Installs the dispatch callbacks on `sim`.
  explicit TrafficManager(NetSim& sim);

  /// Registers a component under `kind` (one component per kind).
  void add(TrafficKind kind, std::unique_ptr<TrafficComponent> component);

  /// Calls start() on every registered component.
  void start(Engine& engine, NetSim& sim);

  /// Publishes every registered component's metrics into `registry`.
  void publish_metrics(obs::Registry& registry) const;

  TrafficComponent* component(TrafficKind kind) const;

 private:
  std::array<std::unique_ptr<TrafficComponent>, 16> components_;
};

}  // namespace massf
