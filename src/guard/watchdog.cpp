#include "guard/watchdog.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "pdes/engine.hpp"

namespace massf::guard {

namespace {
using Clock = std::chrono::steady_clock;

double effective_poll_s(const GuardOptions& o) {
  if (o.poll_interval_s > 0) return o.poll_interval_s;
  const double p = o.stall_deadline_s / 8.0;
  return p < 0.001 ? 0.001 : (p > 0.25 ? 0.25 : p);
}
}  // namespace

Watchdog::Watchdog(Engine& engine, GuardOptions options,
                   obs::Registry* registry)
    : engine_(engine), opts_(std::move(options)), registry_(registry) {}

Watchdog::~Watchdog() { disarm(); }

void Watchdog::arm() {
  if (!opts_.enabled || thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = false;
    fired_ = false;
    diagnostic_.clear();
  }
  thread_ = std::thread([this] { monitor(); });
}

void Watchdog::disarm() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool Watchdog::fired() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fired_;
}

std::string Watchdog::last_diagnostic() const {
  std::lock_guard<std::mutex> lk(mu_);
  return diagnostic_;
}

void Watchdog::monitor() {
  const auto poll = std::chrono::duration<double>(effective_poll_s(opts_));
  std::uint64_t last_progress = engine_.guard_telemetry().progress();
  Clock::time_point last_change = Clock::now();

  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait_for(lk, poll, [this] { return stop_; });
    if (stop_) return;
    const std::uint64_t p = engine_.guard_telemetry().progress();
    const Clock::time_point now = Clock::now();
    if (p != last_progress) {
      last_progress = p;
      last_change = now;
      continue;
    }
    const double stalled =
        std::chrono::duration<double>(now - last_change).count();
    if (stalled < opts_.stall_deadline_s) continue;
    lk.unlock();
    fire(stalled);
    return;  // one firing per arm(); the policy decides what happens next
  }
}

void Watchdog::fire(double stalled_for_s) {
  const std::string json =
      render_diagnostic(engine_, stalled_for_s, opts_.stall_deadline_s);

  std::fprintf(stderr,
               "massf guard: no progress for %.3f s (deadline %.3f s) — "
               "protocol stall; policy=%s%s%s\n%s\n",
               stalled_for_s, opts_.stall_deadline_s,
               on_stall_name(opts_.on_stall),
               opts_.dump_path.empty() ? "" : "; dump=",
               opts_.dump_path.c_str(), json.c_str());
  std::fflush(stderr);

  bool dumped = false;
  if (!opts_.dump_path.empty()) {
    dumped = obs::write_file(opts_.dump_path, json + "\n");
    if (!dumped) {
      std::fprintf(stderr, "massf guard: failed to write dump to %s\n",
                   opts_.dump_path.c_str());
    }
  }
  if (registry_ != nullptr) {
    registry_->counter("guard.stalls_detected").inc();
    if (dumped) registry_->counter("guard.dump_writes").inc();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    fired_ = true;
    diagnostic_ = json;
  }

  if (opts_.on_stall == OnStall::kCancel && engine_.cancel_run()) {
    return;  // the run unwinds; GuardedRun (or the caller) recovers
  }
  // kAbort, or the active executor cannot be cancelled: die loudly with
  // the diagnostic already on stderr rather than hang the job.
  std::fprintf(stderr, "massf guard: aborting stalled run\n");
  std::fflush(stderr);
  std::abort();
}

std::string Watchdog::render_diagnostic(const Engine& engine,
                                        double stalled_for_s,
                                        double deadline_s) {
  const GuardTelemetry& t = engine.guard_telemetry();
  const ChannelGraph& graph = engine.channels();
  const EngineOptions& o = engine.options();
  const std::int32_t n = engine.num_lps();

  std::string j = "{\n  \"schema\": \"massf.guard.v1\",\n";
  j += "  \"reason\": \"no-progress\",\n";
  j += "  \"stalled_for_s\": " + obs::format_double(stalled_for_s) + ",\n";
  j += "  \"deadline_s\": " + obs::format_double(deadline_s) + ",\n";
  j += "  \"sync\": {\"channels\": " + std::to_string(graph.size());
  j += ", \"stalls\": " +
       std::to_string(t.sync_stalls.load(std::memory_order_relaxed));
  j += ", \"quiescence_epochs\": " +
       std::to_string(t.epochs.load(std::memory_order_relaxed)) + "},\n";
  j += "  \"windows\": " +
       std::to_string(t.windows.load(std::memory_order_relaxed)) + ",\n";
  j += "  \"lookahead_s\": " + obs::format_double(to_seconds(o.lookahead)) +
       ",\n";
  j += "  \"end_time_s\": " + obs::format_double(to_seconds(o.end_time)) +
       ",\n";

  std::uint64_t total_events = 0;
  j += "  \"lps\": [\n";
  for (std::int32_t i = 0; i < n; ++i) {
    guard::LpLiveness* cell =
        static_cast<std::size_t>(i) < t.num_lps() && t.cells() != nullptr
            ? t.cells() + i
            : nullptr;
    const std::int64_t clock =
        cell ? cell->clock.load(std::memory_order_relaxed) : 0;
    const std::uint64_t events =
        cell ? cell->events.load(std::memory_order_relaxed) : 0;
    const std::uint64_t depth =
        cell ? cell->queue_depth.load(std::memory_order_relaxed) : 0;
    const std::int64_t min_time =
        cell ? cell->queue_min_time.load(std::memory_order_relaxed)
             : kSimTimeMax;
    total_events += events;
    const std::size_t in_degree =
        graph.empty() ? static_cast<std::size_t>(n > 0 ? n - 1 : 0)
                      : graph.in_neighbors(i).size();
    j += "    {\"lp\": " + std::to_string(i);
    j += ", \"clock_s\": " + obs::format_double(to_seconds(clock));
    j += ", \"events\": " + std::to_string(events);
    j += ", \"queue_depth\": " + std::to_string(depth);
    j += ", \"min_time_s\": ";
    j += min_time == kSimTimeMax ? std::string("null")
                                 : obs::format_double(to_seconds(min_time));
    j += ", \"in_degree\": " + std::to_string(in_degree);
    j += i + 1 < n ? "},\n" : "}\n";
  }
  j += "  ],\n";
  j += "  \"events\": " + std::to_string(total_events) + "\n";
  j += "}";
  return j;
}

}  // namespace massf::guard
