#include "online/agent.hpp"

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace massf {

Agent::Agent(const AgentOptions& options) : opts_(options) {}

void Agent::attach(Engine& engine) {
  engine.barrier_hooks().push_back([this](Engine& eng, SimTime window_start) {
    on_barrier(eng, window_start);
  });
}

void Agent::start(Engine&, NetSim& sim) { sim_ = &sim; }

void Agent::submit(const SendRequest& request) {
  MASSF_CHECK(request.bytes > 0);
  std::lock_guard<std::mutex> lock(mu_);
  inbox_.push_back(request);
}

std::optional<Agent::Delivery> Agent::poll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (outbox_.empty()) return std::nullopt;
  Delivery d = outbox_.front();
  outbox_.pop_front();
  return d;
}

void Agent::requeue(const Delivery& delivery) {
  std::lock_guard<std::mutex> lock(mu_);
  outbox_.push_back(delivery);
}

SimTime Agent::virtual_now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_;
}

std::uint64_t Agent::retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retries_;
}

std::uint64_t Agent::requests_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Agent::on_barrier(Engine& engine, SimTime window_start) {
  MASSF_CHECK(sim_ != nullptr && "Agent not registered with TrafficManager");

  // Soft real-time pacing: hold the window until wall clock catches up.
  if (opts_.slowdown > 0) {
    if (!wall_started_) {
      wall_start_ = std::chrono::steady_clock::now();
      wall_started_ = true;
    }
    const double due_wall_s = to_seconds(window_start) * opts_.slowdown;
    for (;;) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start_)
              .count();
      if (elapsed >= due_wall_s) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(0.001, due_wall_s - elapsed)));
    }
  }

  // Drain live sends into the simulation. Injection happens at the window
  // end: the earliest time a conservative engine can admit a new event.
  // Retries whose backoff has expired ride the same barrier; they are
  // sorted by (not_before, idx) so the order flows are (re)started — and
  // hence flow-id allocation — is identical under every executor,
  // regardless of which worker thread recorded each failure.
  std::deque<SendRequest> pending;
  std::vector<Retry> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    virtual_now_ = window_start;
    pending.swap(inbox_);
    auto split = std::partition(
        retry_queue_.begin(), retry_queue_.end(),
        [&](const Retry& r) { return r.not_before > window_start; });
    ready.assign(split, retry_queue_.end());
    retry_queue_.erase(split, retry_queue_.end());
  }
  std::sort(ready.begin(), ready.end(), [](const Retry& a, const Retry& b) {
    return a.not_before != b.not_before ? a.not_before < b.not_before
                                        : a.idx < b.idx;
  });

  const SimTime inject_at = window_start + engine.options().lookahead;
  for (const SendRequest& req : pending) {
    std::uint32_t idx;
    {
      std::lock_guard<std::mutex> lock(mu_);
      idx = static_cast<std::uint32_t>(in_flight_.size());
      in_flight_.push_back(InFlight{req, /*attempts=*/1});
    }
    sim_->start_flow(engine, inject_at, req.src_host, req.dst_host,
                     req.bytes, make_tag(TrafficKind::kOnline, idx));
  }
  for (const Retry& r : ready) {
    SendRequest req;
    bool give_up = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      InFlight& f = in_flight_[r.idx];
      req = f.req;
      give_up = f.attempts > opts_.max_retries;
      if (!give_up) {
        ++f.attempts;
        ++retries_;
      }
    }
    if (give_up) {
      // Degraded mode: tell the application the path is gone instead of
      // retrying forever. Callback runs here, on the coordinator thread.
      if (degraded_) degraded_(req, window_start);
      Delivery d;
      d.src_host = req.src_host;
      d.dst_host = req.dst_host;
      d.cookie = req.cookie;
      d.virtual_time = window_start;
      d.failed = true;
      std::lock_guard<std::mutex> lock(mu_);
      ++failed_;
      outbox_.push_back(d);
    } else {
      sim_->start_flow(engine, inject_at, req.src_host, req.dst_host,
                       req.bytes, make_tag(TrafficKind::kOnline, r.idx));
    }
  }
}

void Agent::on_flow_complete(Engine& engine, NetSim&, FlowId, NodeId src_host,
                             NodeId dst_host, std::uint32_t tag) {
  const std::uint32_t idx = tag_payload(tag);
  std::lock_guard<std::mutex> lock(mu_);
  MASSF_CHECK(idx < in_flight_.size());
  Delivery d;
  d.src_host = src_host;
  d.dst_host = dst_host;
  d.cookie = in_flight_[idx].req.cookie;
  d.virtual_time = engine.now();
  outbox_.push_back(d);
}

void Agent::on_flow_failed(Engine& engine, NetSim&, FlowId, NodeId, NodeId,
                           std::uint32_t tag) {
  const std::uint32_t idx = tag_payload(tag);
  std::lock_guard<std::mutex> lock(mu_);
  MASSF_CHECK(idx < in_flight_.size());
  // Exponential backoff: retry_backoff_s doubles with every attempt made.
  const double backoff_s =
      opts_.retry_backoff_s *
      static_cast<double>(1ULL << std::min(in_flight_[idx].attempts - 1, 30u));
  retry_queue_.push_back(Retry{engine.now() + from_seconds(backoff_s), idx});
}

void Agent::publish_metrics(obs::Registry& registry) const {
  std::lock_guard<std::mutex> lock(mu_);
  registry.counter("online.requests").inc(in_flight_.size());
  registry.counter("online.retries").inc(retries_);
  registry.counter("online.requests_failed").inc(failed_);
}

}  // namespace massf
