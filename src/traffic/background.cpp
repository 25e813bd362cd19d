#include "traffic/background.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace massf {

BackgroundWorkload::BackgroundWorkload(std::vector<NodeId> sources,
                                       std::vector<NodeId> servers,
                                       const BackgroundOptions& options)
    : servers_(std::move(servers)), opts_(options), base_rng_(options.seed) {
  MASSF_CHECK(!sources.empty() && !servers_.empty());
  sources_.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources_.push_back(Source{sources[i], base_rng_.fork(i), 0, 0, 0, 0});
  }
}

void BackgroundWorkload::start(Engine& engine, NetSim& sim) {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    Source& s = sources_[i];
    const double delay =
        opts_.staggered_start
            ? s.rng.uniform_real(0.0, opts_.think_time_mean_s)
            : s.rng.exponential(opts_.think_time_mean_s);
    sim.schedule_app_timer(engine, s.host, from_seconds(delay),
                           make_timer(TrafficKind::kBackground, i));
  }
}

void BackgroundWorkload::on_timer(Engine& engine, NetSim& sim, NodeId host,
                                  std::uint64_t payload, std::uint64_t) {
  const auto idx = static_cast<std::uint32_t>(payload);
  MASSF_CHECK(idx < sources_.size());
  Source& s = sources_[idx];
  MASSF_CHECK(s.host == host);
  // Outcome bits carried back from the completion/failure handlers: the
  // source's own LP does the counting (see header).
  if (payload & kTimerCompletedBit) ++s.completed;
  if (payload & kTimerFailedBit) ++s.failed;
  issue_flow(engine, sim, idx);
}

void BackgroundWorkload::issue_flow(Engine& engine, NetSim& sim,
                                    std::uint32_t source_idx) {
  Source& s = sources_[source_idx];
  const NodeId server = servers_[s.rng.uniform(servers_.size())];
  if (!sim.forwarding().reachable(s.host, server) ||
      !sim.forwarding().reachable(server, s.host)) {
    sim.schedule_app_timer(
        engine, s.host,
        engine.now() + from_seconds(s.rng.exponential(opts_.think_time_mean_s)),
        make_timer(TrafficKind::kBackground, source_idx));
    return;
  }
  const double raw = s.rng.exponential(opts_.flow_mean_bytes);
  const auto bytes =
      static_cast<std::uint32_t>(std::clamp(raw, 1.0, 1024.0 * 1024 * 1024));
  ++s.issued;
  const std::uint32_t tag = make_tag(TrafficKind::kBackground, source_idx);
  if (sim.start_background_flow(engine, engine.now(), s.host, server, bytes,
                                tag)) {
    ++s.fluid;
  }
}

void BackgroundWorkload::on_flow_complete(Engine& engine, NetSim& sim,
                                          FlowId flow, NodeId src_host,
                                          NodeId, std::uint32_t tag) {
  // Runs on the receiver's LP (packet) or a window boundary (fluid): the
  // think time must not consume the source's RNG, so it is a pure function
  // of the flow id — deterministic under any executor, same idiom as the
  // HTTP response size.
  const auto idx = tag_payload(tag);
  MASSF_CHECK(idx < sources_.size());
  Rng think_rng = base_rng_.fork(flow ^ 0xd1b54a32d192ed03ULL);
  const SimTime delay = std::max(
      from_seconds(think_rng.exponential(opts_.think_time_mean_s)),
      engine.options().lookahead);
  sim.schedule_app_timer(
      engine, src_host, engine.now() + delay,
      make_timer(TrafficKind::kBackground, idx | kTimerCompletedBit));
}

void BackgroundWorkload::on_flow_failed(Engine& engine, NetSim& sim, FlowId,
                                        NodeId src_host, NodeId,
                                        std::uint32_t tag) {
  // Fixed backoff (no RNG on a foreign LP); the lookahead floor keeps the
  // cross-LP schedule contract satisfied from handlers and boundaries.
  const auto idx = tag_payload(tag);
  MASSF_CHECK(idx < sources_.size());
  const SimTime backoff = std::max(from_seconds(opts_.think_time_mean_s),
                                   engine.options().lookahead);
  sim.schedule_app_timer(
      engine, src_host, engine.now() + backoff,
      make_timer(TrafficKind::kBackground, idx | kTimerFailedBit));
}

std::uint64_t BackgroundWorkload::flows_issued() const {
  std::uint64_t total = 0;
  for (const Source& s : sources_) total += s.issued;
  return total;
}

std::uint64_t BackgroundWorkload::flows_completed() const {
  std::uint64_t total = 0;
  for (const Source& s : sources_) total += s.completed;
  return total;
}

std::uint64_t BackgroundWorkload::flows_failed() const {
  std::uint64_t total = 0;
  for (const Source& s : sources_) total += s.failed;
  return total;
}

std::uint64_t BackgroundWorkload::fluid_carried() const {
  std::uint64_t total = 0;
  for (const Source& s : sources_) total += s.fluid;
  return total;
}

void BackgroundWorkload::publish_metrics(obs::Registry& registry) const {
  registry.counter("traffic.bg.flows").inc(flows_issued());
  registry.counter("traffic.bg.completed").inc(flows_completed());
  registry.counter("traffic.bg.failed").inc(flows_failed());
  registry.counter("traffic.bg.fluid").inc(fluid_carried());
}

}  // namespace massf
