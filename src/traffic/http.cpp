#include "traffic/http.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace massf {
namespace {

// Tag payload layout: request/response bit (bit 27) | client index.
constexpr std::uint32_t kResponseBit = 1u << 27;

}  // namespace

HttpWorkload::HttpWorkload(std::vector<NodeId> clients,
                           std::vector<NodeId> servers,
                           const HttpOptions& options)
    : servers_(std::move(servers)),
      opts_(options),
      base_rng_(options.seed),
      server_popularity_(std::max<std::size_t>(servers_.size(), 1),
                         options.zipf_exponent) {
  MASSF_CHECK(!clients.empty() && !servers_.empty());
  clients_.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients_.push_back(Client{clients[i], base_rng_.fork(i), 0, 0});
  }
}

void HttpWorkload::start(Engine& engine, NetSim& sim) {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client& c = clients_[i];
    const double delay =
        opts_.staggered_start
            ? c.rng.uniform_real(0.0, opts_.think_time_mean_s)
            : c.rng.exponential(opts_.think_time_mean_s);
    sim.schedule_app_timer(engine, c.host, from_seconds(delay),
                           make_timer(TrafficKind::kHttp, i));
  }
}

void HttpWorkload::on_timer(Engine& engine, NetSim& sim, NodeId host,
                            std::uint64_t payload, std::uint64_t) {
  const auto idx = static_cast<std::uint32_t>(payload);
  MASSF_CHECK(idx < clients_.size());
  MASSF_CHECK(clients_[idx].host == host);
  issue_request(engine, sim, idx);
}

void HttpWorkload::issue_request(Engine& engine, NetSim& sim,
                                 std::uint32_t client_idx) {
  Client& c = clients_[client_idx];
  const NodeId server = servers_[server_popularity_.sample(c.rng)];
  if (!sim.forwarding().reachable(c.host, server) ||
      !sim.forwarding().reachable(server, c.host)) {
    // Policy-unreachable pair (possible under BGP): back off and retry.
    sim.schedule_app_timer(
        engine, c.host,
        engine.now() + from_seconds(c.rng.exponential(opts_.think_time_mean_s)),
        make_timer(TrafficKind::kHttp, client_idx));
    return;
  }
  ++c.requests;
  sim.start_flow(engine, engine.now(), c.host, server, opts_.request_bytes,
                 make_tag(TrafficKind::kHttp, client_idx));
}

void HttpWorkload::on_flow_complete(Engine& engine, NetSim& sim, FlowId flow,
                                    NodeId src_host, NodeId dst_host,
                                    std::uint32_t tag) {
  const std::uint32_t payload = tag_payload(tag);
  const auto client_idx = payload & ~kResponseBit;
  MASSF_CHECK(client_idx < clients_.size());
  Client& c = clients_[client_idx];

  if ((payload & kResponseBit) == 0) {
    // Request arrived at the server (we are on the server's LP): send the
    // response. The size is a pure function of the request's flow id so it
    // is deterministic under any executor.
    Rng resp_rng = base_rng_.fork(flow ^ 0x9e3779b97f4a7c15ULL);
    const double bytes = resp_rng.exponential(opts_.file_mean_bytes);
    const auto size = static_cast<std::uint32_t>(
        std::clamp(bytes, 1.0, 64.0 * 1024 * 1024));
    sim.start_flow(engine, engine.now(), dst_host, src_host, size,
                   make_tag(TrafficKind::kHttp, client_idx | kResponseBit));
    return;
  }

  // Response fully received (we are on the client's LP): think, then next
  // request.
  MASSF_CHECK(dst_host == c.host);
  ++c.responses;
  sim.schedule_app_timer(
      engine, c.host,
      engine.now() + from_seconds(c.rng.exponential(opts_.think_time_mean_s)),
      make_timer(TrafficKind::kHttp, client_idx));
}

void HttpWorkload::on_flow_failed(Engine& engine, NetSim& sim, FlowId,
                                  NodeId, NodeId, std::uint32_t tag) {
  // This runs on the *sender's* LP — the server's for a failed response —
  // so the client's Rng must not be touched; use a fixed backoff instead.
  // The lookahead floor keeps the cross-LP schedule contract satisfied.
  const auto client_idx = tag_payload(tag) & ~kResponseBit;
  MASSF_CHECK(client_idx < clients_.size());
  const SimTime backoff = std::max(from_seconds(opts_.think_time_mean_s),
                                   engine.options().lookahead);
  sim.schedule_app_timer(engine, clients_[client_idx].host,
                         engine.now() + backoff,
                         make_timer(TrafficKind::kHttp, client_idx));
}

std::uint64_t HttpWorkload::requests_issued() const {
  std::uint64_t total = 0;
  for (const Client& c : clients_) total += c.requests;
  return total;
}

std::uint64_t HttpWorkload::responses_completed() const {
  std::uint64_t total = 0;
  for (const Client& c : clients_) total += c.responses;
  return total;
}

void HttpWorkload::publish_metrics(obs::Registry& registry) const {
  registry.counter("traffic.http.requests").inc(requests_issued());
  registry.counter("traffic.http.responses").inc(responses_completed());
}

}  // namespace massf
