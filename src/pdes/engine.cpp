#include "pdes/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace massf {

constinit thread_local Engine::HandlerCtx Engine::tls_ctx_;

namespace {
using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
}  // namespace

std::vector<double> RunStats::event_rates() const {
  std::vector<double> rates(events_per_lp.size(), 0.0);
  if (modeled_wall_s <= 0) return rates;
  for (std::size_t i = 0; i < events_per_lp.size(); ++i) {
    rates[i] = static_cast<double>(events_per_lp[i]) / modeled_wall_s;
  }
  return rates;
}

Engine::Engine(const EngineOptions& options)
    : opts_(options), guard_enabled_(options.guard.enabled) {
  MASSF_ENFORCE(opts_.lookahead > 0, ErrorCategory::kConfig,
                "EngineOptions::lookahead must be > 0");
  MASSF_ENFORCE(opts_.cost_per_event_s >= 0, ErrorCategory::kConfig,
                "EngineOptions::cost_per_event_s must be >= 0");
  MASSF_ENFORCE(opts_.end_time > 0, ErrorCategory::kConfig,
                "EngineOptions::end_time must be > 0");
}

Engine::~Engine() = default;

LpId Engine::add_lp(std::unique_ptr<LogicalProcess> lp) {
  MASSF_CHECK(!running_);
  MASSF_CHECK(lp != nullptr);
  lps_.push_back(Lp{});
  lps_.back().process = std::move(lp);
  return static_cast<LpId>(lps_.size() - 1);
}

void Engine::schedule(LpId lp, SimTime time, std::int32_t type,
                      std::uint64_t a, std::uint64_t b, std::uint64_t c,
                      std::uint64_t d) {
  MASSF_CHECK(lp >= 0 && lp < static_cast<LpId>(lps_.size()));
  Event ev;
  ev.time = time;
  ev.lp = lp;
  ev.type = type;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.d = d;

  const LpId cur = current_lp();
  if (!running_ || cur == kInvalidLp) {
    // Initial (pre-run) or barrier-hook scheduling: direct insertion. While
    // running, injected events must not land inside the open window.
    if (running_ && time < window_end_) {
      MASSF_THROW(ErrorCategory::kConfig,
                  "injected event at t=" + std::to_string(time) +
                      " lands inside the open window ending at t=" +
                      std::to_string(window_end_) +
                      " (boundary hooks must schedule at or after the "
                      "window end)");
    }
    auto& dst = lps_[static_cast<std::size_t>(lp)];
    ev.seq = dst.next_seq++;
    dst.queue.push(ev);
    return;
  }

  MASSF_CHECK(time >= now());
  if (lp == cur) {
    auto& dst = lps_[static_cast<std::size_t>(lp)];
    ev.seq = dst.next_seq++;
    dst.queue.push(ev);
    return;
  }

  // Cross-LP send: the conservative contract. The channel latency embedded
  // in `time` must push the event past the current window, otherwise the
  // partition's lookahead (MLL) was computed wrong.
  if (time < window_end_) {
    MASSF_THROW(ErrorCategory::kTopology,
                "cross-LP send from lp " + std::to_string(cur) + " to lp " +
                    std::to_string(lp) + " at t=" + std::to_string(time) +
                    " arrives inside the sending window ending at t=" +
                    std::to_string(window_end_) +
                    " — channel latency is below the partition lookahead "
                    "(MLL)");
  }
  // A declared topology is a promise the merge order relies on: sends may
  // only travel declared channels (channel_sync.hpp).
  if (!channels_.allows(cur, lp)) {
    MASSF_THROW(ErrorCategory::kTopology,
                "cross-LP send from lp " + std::to_string(cur) + " to lp " +
                    std::to_string(lp) +
                    " travels a channel missing from the declared "
                    "ChannelGraph");
  }
  if (lps_[static_cast<std::size_t>(cur)].outbox.add(ev)) {
    // First send to `lp` this window: set the source's bit in lp's sender
    // mask. fetch_or keeps concurrent senders' bits; relaxed order is
    // enough because the merge reading the mask is already ordered after
    // this write by what publishes the bucket itself — the sequential
    // loop merges after every LP is processed, the channel executor after
    // acquiring each sender's processed stage word (or processed_count).
    const auto s = static_cast<std::size_t>(cur);
    sender_masks_[static_cast<std::size_t>(lp) * mask_words_ + s / 64]
        .fetch_or(std::uint64_t{1} << (s % 64), std::memory_order_relaxed);
  }
}

void Engine::set_channels(ChannelGraph graph) {
  MASSF_CHECK(!running_);
  graph.finalize(num_lps());
  // A channel faster than the window width would let a send land inside
  // the window it was sent from — the lookahead (MLL) contract.
  if (graph.min_lookahead() < opts_.lookahead) {
    MASSF_THROW(ErrorCategory::kTopology,
                "ChannelGraph min lookahead " +
                    std::to_string(graph.min_lookahead()) +
                    " is below the engine lookahead " +
                    std::to_string(opts_.lookahead) +
                    " — a send along that channel could land inside its "
                    "own window");
  }
  channels_ = std::move(graph);
}

SimTime Engine::next_event_floor() const {
  // min_time() is a cached field read, so this is a linear scan of one
  // word per LP — no heap walks.
  SimTime floor = kSimTimeMax;
  for (const Lp& lp : lps_) floor = std::min(floor, lp.queue.min_time());
  return floor;
}

void Engine::merge_lp_inbox(LpId dst_id, std::uint64_t* nulls) {
  Lp& dst = lps_[static_cast<std::size_t>(dst_id)];
  dst.premerge_depth = dst.queue.size();
  std::atomic<std::uint64_t>* mask =
      &sender_masks_[static_cast<std::size_t>(dst_id) * mask_words_];
  std::size_t senders = 0;
  // Ascending words, lowest set bit first: sources in id order, the merge
  // order that fixes the arrival seqs.
  for (std::size_t w = 0; w < mask_words_; ++w) {
    std::uint64_t bits = mask[w].load(std::memory_order_relaxed);
    if (bits == 0) continue;
    mask[w].store(0, std::memory_order_relaxed);
    senders += static_cast<std::size_t>(std::popcount(bits));
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t src = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(bits));
      for (const Event& ev : lps_[src].outbox.bucket(dst_id)) {
        Event copy = ev;
        copy.seq = dst.next_seq++;
        dst.queue.push(copy);
      }
    }
  }
  if (nulls != nullptr) {
    // Channels that advanced with no traffic this window — the null-
    // message analog, tallied by the channel executor. schedule() admits
    // only declared channels, so every sender is a candidate.
    const std::size_t candidates =
        channels_.empty() ? lps_.size() - 1
                          : channels_.in_neighbors(dst_id).size();
    *nulls += candidates - senders;
  }
}

void Engine::clear_outboxes() {
  for (Lp& src : lps_) {
    if (src.outbox.total() == 0) continue;
    stats_.cross_lp_events += src.outbox.total();
    stats_.merge_batches += src.outbox.batches();
    src.outbox.clear();
  }
}

void Engine::account_window() {
  double max_busy = 0;
  for (std::size_t i = 0; i < lps_.size(); ++i) {
    const double busy = static_cast<double>(lps_[i].window_events) *
                        opts_.cost_per_event_s;
    stats_.busy_s[i] += busy;
    max_busy = std::max(max_busy, busy);
    lps_[i].window_events = 0;
  }
  stats_.modeled_wall_s += max_busy + opts_.sync_cost_s;
  stats_.modeled_sync_s += opts_.sync_cost_s;
  ++stats_.num_windows;
  // Unconditional (one relaxed increment per window): the watchdog's
  // progress sample and the test freeze hook key off it.
  guard_.windows.fetch_add(1, std::memory_order_relaxed);
}

void Engine::process_lp_window(LpId i) {
  Lp& lp = lps_[static_cast<std::size_t>(i)];
  // Save/restore the thread's handler context: an inner engine driven from
  // a handler (nested simulation) must not clobber the outer engine's
  // context on this thread.
  const HandlerCtx saved = tls_ctx_;
  if (threaded_) {
    tls_ctx_ = HandlerCtx{this, 0, i};
  } else {
    current_lp_ = i;
  }
  try {
    for (;;) {
      const SimTime next = lp.queue.min_time();  // kSimTimeMax when empty
      if (next >= window_end_ || next >= opts_.end_time) break;
      const Event ev = lp.queue.top();
      lp.queue.pop();
      if (threaded_) {
        tls_ctx_.now = ev.time;
      } else {
        now_ = ev.time;
      }
      lp.process->handle(*this, ev);
      ++lp.events;
      ++lp.window_events;
      if (opts_.load_bin > 0) {
        stats_.lp_load[static_cast<std::size_t>(i)].add(to_seconds(ev.time),
                                                        1.0);
      }
    }
  } catch (...) {
    // Restore the handler context before the error propagates: the worker
    // keeps running protocol steps (and possibly other LPs) while the run
    // shuts down, and a stale context would corrupt now()/current_lp().
    if (threaded_) {
      tls_ctx_ = saved;
    } else {
      current_lp_ = kInvalidLp;
    }
    throw;
  }
  if (threaded_) {
    tls_ctx_ = saved;
  } else {
    current_lp_ = kInvalidLp;
  }
  if (guard_enabled_) guard_note_lp(i);
}

void Engine::open_window_boundary(SimTime floor) {
  window_end_ = floor + opts_.lookahead;
  // Hooks observe the window floor through now() under both executors
  // (current_lp() is invalid here, so schedule() takes the injection path).
  now_ = floor;
  for (auto& hook : hooks_.barrier) hook(*this, floor);
}

void Engine::probe_window(SimTime floor) {
  // Called after the merge, before outboxes are cleared: window_events is
  // still this window's tally, outbox sizes are still readable, and
  // premerge_depth (recorded by merge_lp_inbox) is the backlog each LP
  // carried out of its processing phase — the same quantity the probe
  // reported when it ran before the merge, but available identically under
  // both executors now that the merge itself is parallel.
  probe_->begin_window(stats_.num_windows, to_seconds(floor));
  for (std::size_t i = 0; i < lps_.size(); ++i) {
    probe_->record_lp(static_cast<std::int32_t>(i), lps_[i].window_events,
                      lps_[i].premerge_depth, lps_[i].outbox.total(),
                      lps_[i].outbox.batches());
  }
}

void Engine::publish_run_metrics() {
  obs::Registry& r = *registry_;
  r.counter("pdes.events").inc(stats_.total_events);
  r.counter("pdes.windows").inc(stats_.num_windows);
  r.gauge("pdes.lps").set(static_cast<double>(lps_.size()));
  r.gauge("pdes.modeled_wall_s").add(stats_.modeled_wall_s);
  r.gauge("pdes.modeled_sync_s").add(stats_.modeled_sync_s);
  r.gauge("pdes.end_vtime_s").set(to_seconds(stats_.end_vtime));
  r.gauge("pdes.lookahead_s").set(to_seconds(opts_.lookahead));
  // Scheduler internals (schema massf.metrics.v1, DESIGN.md section 5d).
  std::size_t heap_peak = 0, arena_slots = 0;
  for (const Lp& lp : lps_) {
    heap_peak = std::max(heap_peak, lp.queue.peak_size());
    arena_slots += lp.queue.arena_slots();
  }
  r.gauge("pdes.sched.heap_peak").set(static_cast<double>(heap_peak));
  r.gauge("pdes.sched.arena_slots").set(static_cast<double>(arena_slots));
  r.counter("pdes.sched.cross_events").inc(stats_.cross_lp_events);
  r.counter("pdes.sched.merge_batches").inc(stats_.merge_batches);
  r.gauge("pdes.sched.threads").set(static_cast<double>(run_threads_));
  // Synchronization protocol aggregates (schema massf.metrics.v1,
  // DESIGN.md section 5g). Wait gauges are zero unless a probe timed them.
  r.gauge("pdes.sync.channels").set(static_cast<double>(sync_stats_.channels));
  r.counter("pdes.sync.null_events").inc(sync_stats_.null_events);
  r.counter("pdes.sync.stalls").inc(sync_stats_.stalls);
  r.counter("pdes.sync.quiescence_epochs")
      .inc(sync_stats_.quiescence_epochs);
  r.gauge("pdes.sync.channel_wait_s").add(sync_stats_.channel_wait_s);
  r.gauge("pdes.sync.epoch_wait_s").add(sync_stats_.epoch_wait_s);
}

void Engine::begin_run() {
  MASSF_CHECK(!running_);
  running_ = true;
  stop_requested_.store(false, std::memory_order_relaxed);
  cancel_requested_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    run_error_ = nullptr;
  }
  if (guard_enabled_) {
    guard_.reset(lps_.size());
  } else {
    guard_.windows.store(0, std::memory_order_relaxed);
    guard_.epochs.store(0, std::memory_order_relaxed);
    guard_.sync_stalls.store(0, std::memory_order_relaxed);
  }
  sync_stats_ = SyncStats{};
  sync_stats_.channels = channels_.size();
  // Exchange state, sized for the registered LPs.
  for (Lp& lp : lps_) lp.outbox.resize(lps_.size());
  mask_words_ = (lps_.size() + 63) / 64;
  sender_masks_ = std::vector<std::atomic<std::uint64_t>>(lps_.size() *
                                                          mask_words_);
  stats_ = RunStats{};
  stats_.events_per_lp.assign(lps_.size(), 0);
  stats_.busy_s.assign(lps_.size(), 0.0);
  if (opts_.load_bin > 0) {
    stats_.lp_load.assign(lps_.size(), TimeSeries(to_seconds(opts_.load_bin)));
  }
}

void Engine::finish_run(SimTime floor) {
  running_ = false;
  stats_.end_vtime = std::min(floor, opts_.end_time);
  stats_.total_events = 0;
  for (std::size_t i = 0; i < lps_.size(); ++i) {
    stats_.events_per_lp[i] = lps_[i].events;
    stats_.total_events += lps_[i].events;
  }
  // A cancelled run's stats are a truncated prefix; the run that replaces
  // it publishes.
  if (registry_ && !run_cancelled()) publish_run_metrics();
}

RunStats Engine::run() {
  begin_run();
  run_threads_ = 0;
  return run_window_loop();
}

bool Engine::cancel_run() {
  std::lock_guard<std::mutex> lk(cancel_mu_);
  cancel_requested_.store(true, std::memory_order_release);
  stop_requested_.store(true, std::memory_order_release);
  if (!canceller_) return false;
  canceller_();
  return true;
}

void Engine::record_run_error() {
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (!run_error_) run_error_ = std::current_exception();
  }
  // The stop flag drains the run through the normal protocol: every
  // worker reaches its gates/epochs, the coordinator exits at the next
  // boundary, threads join cleanly.
  stop_requested_.store(true, std::memory_order_release);
}

bool Engine::has_run_error() const {
  std::lock_guard<std::mutex> lk(error_mu_);
  return run_error_ != nullptr;
}

void Engine::rethrow_run_error() {
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    e = run_error_;
  }
  if (e) std::rethrow_exception(e);
}

void Engine::guard_note_lp(LpId i) {
  if (static_cast<std::size_t>(i) >= guard_.num_lps()) return;
  const Lp& lp = lps_[static_cast<std::size_t>(i)];
  guard::LpLiveness& cell = guard_.lp(static_cast<std::size_t>(i));
  cell.clock.store(window_end_, std::memory_order_relaxed);
  cell.events.store(lp.events, std::memory_order_relaxed);
  cell.queue_depth.store(lp.queue.size(), std::memory_order_relaxed);
  cell.queue_min_time.store(lp.queue.min_time(), std::memory_order_relaxed);
}

RunStats Engine::run_window_loop() {
  const LpId n = static_cast<LpId>(lps_.size());
  SimTime floor = next_event_floor();
  while (floor < opts_.end_time && floor != kSimTimeMax && !stop_requested()) {
    if (probe_ == nullptr) {
      open_window_boundary(floor);
      for (LpId i = 0; i < n; ++i) process_lp_window(i);
      for (LpId d = 0; d < n; ++d) merge_lp_inbox(d);
      clear_outboxes();
      account_window();
    } else {
      const auto t0 = Clock::now();
      open_window_boundary(floor);
      const auto t1 = Clock::now();
      for (LpId i = 0; i < n; ++i) process_lp_window(i);
      const auto t2 = Clock::now();
      for (LpId d = 0; d < n; ++d) merge_lp_inbox(d);
      probe_window(floor);
      clear_outboxes();
      account_window();
      const auto t3 = Clock::now();
      probe_->end_window(elapsed_s(t0, t1), elapsed_s(t1, t2),
                         /*barrier_wait_s=*/0.0, elapsed_s(t2, t3));
    }
    floor = next_event_floor();
  }
  finish_run(floor);
  return stats_;
}

}  // namespace massf
