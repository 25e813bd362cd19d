// Conservative barrier-synchronous parallel discrete-event engine.
//
// This reproduces the synchronization protocol of DaSSF-class simulators
// (MaSSF's engine): logical processes (LPs) — one per simulation engine
// node — advance in global windows of width `lookahead`, the minimum
// cross-partition link latency (MLL). Within a window every LP processes
// its own events independently; events sent to other LPs are buffered and
// exchanged at the window barrier. Conservative correctness holds because a
// cross-LP event sent at time t arrives at t + (channel latency >= MLL),
// i.e. never inside the window it was sent from — the engine enforces this
// with a runtime check rather than trusting the caller.
//
// The engine also implements the paper-cluster substitution documented in
// DESIGN.md: per window it charges each LP `cost_per_event` for every event
// processed and the whole machine one synchronization cost, accumulating a
// *modeled* parallel wall clock from which simulation time, load imbalance,
// and parallel efficiency are derived. A threaded executor (channel_sync.hpp)
// really runs LPs on worker threads and produces identical simulation
// results.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "guard/options.hpp"
#include "pdes/channel_sync.hpp"
#include "pdes/event.hpp"
#include "pdes/sched.hpp"
#include "util/stats.hpp"

namespace massf {

namespace obs {
class Registry;
class WindowProbe;
}  // namespace obs

class Engine;

/// Work the engine runs at a window boundary, given the window's floor.
using BarrierHook = std::function<void(Engine&, SimTime)>;

/// One logical process: a simulation engine node owning a partition of the
/// network. Implementations must be deterministic functions of the event
/// stream (all randomness from per-LP forked Rng streams).
class LogicalProcess {
 public:
  virtual ~LogicalProcess() = default;
  virtual void handle(Engine& engine, const Event& event) = 0;
};

struct EngineOptions {
  /// Synchronization window width = minimum cross-partition link latency.
  SimTime lookahead = milliseconds(1);
  /// Modeled per-event processing cost in seconds on one engine node.
  double cost_per_event_s = 5e-6;
  /// Modeled per-window global synchronization cost in seconds (from the
  /// cluster cost model, a function of the engine-node count).
  double sync_cost_s = 0;
  /// Simulation horizon; events at or beyond it are not executed.
  SimTime end_time = seconds(1);
  /// When > 0, per-LP event counts are recorded into virtual-time bins of
  /// this width (for load-variation traces, paper Figure 3).
  SimTime load_bin = 0;
  /// Supervision (src/guard). When enabled the engine maintains liveness
  /// telemetry (guard::GuardTelemetry) a watchdog can sample; off by
  /// default. The engine itself never starts the monitor thread —
  /// guard::Watchdog does.
  guard::GuardOptions guard;
};

struct RunStats {
  std::uint64_t total_events = 0;
  std::uint64_t num_windows = 0;
  std::vector<std::uint64_t> events_per_lp;
  /// Modeled parallel wall-clock (seconds): sum over windows of
  /// max_lp(events * cost_per_event) + sync_cost.
  double modeled_wall_s = 0;
  /// Modeled wall-clock spent in synchronization only.
  double modeled_sync_s = 0;
  /// Per-LP modeled busy time (seconds).
  std::vector<double> busy_s;
  /// Virtual time at which the run stopped.
  SimTime end_vtime = 0;
  /// Per-LP load traces (empty unless EngineOptions::load_bin > 0).
  std::vector<TimeSeries> lp_load;
  /// Cross-LP events exchanged at window barriers over the whole run, and
  /// the number of non-empty (src,dst) outbox buffers merged. Both are
  /// deterministic functions of the event stream — the differential tests
  /// compare them across executors.
  std::uint64_t cross_lp_events = 0;
  std::uint64_t merge_batches = 0;

  /// Per-engine-node kernel event rates (events per modeled second of the
  /// whole run), the quantity whose normalized stddev is the paper's load
  /// imbalance metric.
  std::vector<double> event_rates() const;
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an LP; returns its id (dense, in registration order).
  LpId add_lp(std::unique_ptr<LogicalProcess> lp);

  std::int32_t num_lps() const {
    return static_cast<std::int32_t>(lps_.size());
  }

  const EngineOptions& options() const { return opts_; }

  /// Schedules an event. Usable both before run() (initial events, any LP)
  /// and from inside LogicalProcess::handle. From a handler, an event for a
  /// *different* LP must arrive at or after the end of the current window
  /// (the conservative contract); same-LP events only need time >= now().
  void schedule(LpId lp, SimTime time, std::int32_t type, std::uint64_t a = 0,
                std::uint64_t b = 0, std::uint64_t c = 0, std::uint64_t d = 0);

  /// Timestamp of the event being handled (valid inside handle()); inside a
  /// barrier hook, the start time (floor) of the window about to open —
  /// identical under every executor.
  SimTime now() const {
    return (threaded_ && tls_ctx_.engine == this) ? tls_ctx_.now : now_;
  }

  /// LP whose event is being handled (valid inside handle()).
  LpId current_lp() const {
    return (threaded_ && tls_ctx_.engine == this) ? tls_ctx_.lp : current_lp_;
  }

  /// Runs sequentially (deterministic reference executor) until end_time or
  /// event exhaustion. Contract violations (util/error.hpp) surface as
  /// thrown EngineError under every executor — a throw from a handler or
  /// hook on a worker thread is captured, the run shuts down cleanly at
  /// the next protocol step, and the first error is rethrown on the
  /// calling thread. The engine must not be reused after a thrown run.
  RunStats run();

  /// Runs the same protocol with the per-window LP processing and outbox
  /// merge distributed over `num_threads` threads (the calling thread
  /// counts as one). LPs are claimed dynamically, so a window's span is
  /// bounded by its slowest single LP rather than by a static LP bucket.
  /// Produces bit-identical simulation results to run(): within a window
  /// each LP is processed serially by exactly one thread, and the merge
  /// assigns arrival seqs in an order independent of thread scheduling
  /// (DESIGN.md sections 5d and 5g). Modeled-time statistics are identical
  /// as well — only real wall clock differs. Threads synchronize through
  /// per-channel clocks with quiescence epochs (channel_sync.cpp).
  /// num_threads == 1 short-circuits to the sequential window loop — one
  /// thread has nothing to synchronize with.
  RunStats run_threaded(std::int32_t num_threads);

  /// Declares the cross-LP communication topology the channel-clock
  /// executor synchronizes over, replacing the all-pairs default. Every
  /// channel lookahead must be >= options().lookahead and ids must name
  /// registered LPs (violations throw EngineError, category topology).
  /// Once declared, schedule() enforces the topology under every executor:
  /// a cross-LP send along an undeclared channel throws.
  void set_channels(ChannelGraph graph);
  const ChannelGraph& channels() const { return channels_; }

  /// Synchronization aggregates of the last run (pdes.sync.* schema).
  const SyncStats& sync_stats() const { return sync_stats_; }

  /// Requests a clean stop at the next window boundary. Callable from
  /// handlers (including ones running on run_threaded workers) and, in
  /// online mode, from the agent thread — hence the atomic: the coordinator
  /// re-reads the flag at every window boundary.
  void request_stop() { stop_requested_.store(true, std::memory_order_release); }

  /// Forcibly cancels the in-flight run from another thread (the watchdog,
  /// on a stall). Beyond request_stop() — which only takes effect at the
  /// next window boundary, a boundary a stalled run never reaches — this
  /// additionally wakes the threaded executor's parked/stalling workers so
  /// they observe the stop and return. Returns true for every multi-thread
  /// run; false for the sequential window loop (run(), run_threaded(1)),
  /// which can only honor the boundary stop — a run wedged *inside* a
  /// window on the calling thread cannot be recovered in-process. After a
  /// cancelled run, run_cancelled() is true, the RunStats are a truncated
  /// prefix, and the engine must not be reused — recovery re-runs from
  /// t = 0 on a fresh engine (run_mapping, campaign/runner.hpp).
  bool cancel_run();

  /// True when the last run ended via cancel_run() rather than reaching
  /// end_time / event exhaustion / a clean stop.
  bool run_cancelled() const {
    return cancel_requested_.load(std::memory_order_acquire);
  }

  /// Liveness telemetry sampled by guard::Watchdog. Sized by begin_run()
  /// when options().guard.enabled; all fields are atomics (safe to read
  /// concurrently with the run).
  const guard::GuardTelemetry& guard_telemetry() const { return guard_; }

  /// Test-only stall injection: once `after_windows` windows have been
  /// accounted, the threaded executor stops claiming `lp`, freezing its
  /// channel clock mid-run — in-neighbors can never merge, the epoch never
  /// closes, and the protocol stalls exactly the way a lost/wedged
  /// component would. The sequential window loop (run(), run_threaded(1))
  /// ignores the freeze, so the sequential re-run after a stall completes.
  /// kInvalidLp (default) disarms.
  void test_freeze_lp_clock(LpId lp, std::uint64_t after_windows = 0) {
    freeze_lp_ = lp;
    freeze_after_windows_ = after_windows;
  }

  /// The window-boundary hooks; each subsystem (fault injector, online
  /// pacing, the fluid link model) appends its own. At each boundary they
  /// run in registration order on one thread under every executor (other
  /// workers quiescent, no handler running). A hook may call
  /// request_stop(): the boundary's window is still processed before the
  /// run ends (matching the loop-top stop check).
  std::vector<BarrierHook>& barrier_hooks() { return barrier_hooks_; }
  const std::vector<BarrierHook>& barrier_hooks() const {
    return barrier_hooks_;
  }

  /// Attaches a window telemetry probe (obs/probe.hpp): per window the
  /// engine records per-LP events, queue depths, outbox sizes, and real
  /// wall-clock per protocol phase. Null (the default) detaches; without a
  /// probe the run loop performs no clock reads and no recording — the
  /// per-event path is untouched either way.
  void set_probe(obs::WindowProbe* probe) { probe_ = probe; }

  /// Attaches a metrics registry (obs/metrics.hpp): run totals are
  /// published as `pdes.*` counters/gauges when a run finishes (schema in
  /// DESIGN.md); a cancelled run publishes nothing. Null (the default)
  /// publishes nothing.
  void set_registry(obs::Registry* registry) { registry_ = registry; }

  /// Pending (not yet executed) events queued on `lp`.
  std::size_t lp_pending(LpId lp) const {
    return lps_[static_cast<std::size_t>(lp)].queue.size();
  }

 private:
  struct Lp {
    std::unique_ptr<LogicalProcess> process;
    EventSched queue;
    std::uint64_t next_seq = 0;
    std::uint64_t events = 0;
    std::uint64_t window_events = 0;
    /// Cross-LP sends buffered within a window: one bucket per
    /// destination LP, sized by begin_run. Written only by the thread
    /// processing this LP, read by the threads merging its destinations.
    Outbox outbox;
    /// Queue depth after processing, before the barrier merge — recorded
    /// by whichever thread merges this LP's arrivals, read by the window
    /// probe. Deterministic, so probe rows match across executors.
    std::uint64_t premerge_depth = 0;
  };

  SimTime next_event_floor() const;
  /// Delivers every source's buffered sends for destination `dst`,
  /// assigning arrival seqs in (src id, send order) — the deterministic
  /// merge order. Visits only the sources set in `dst`'s sender mask, in
  /// ascending id, then zeroes the mask: O(mask words + senders + events),
  /// independent of how many LPs could have sent. Touches only `dst`'s
  /// queue, seq counter and mask (source outboxes are read-only), so
  /// distinct destinations can merge concurrently — the one merge path of
  /// both executors. When `nulls` is non-null it gains the channels that
  /// advanced empty: candidates − senders, where the candidates are every
  /// other LP, or `dst`'s in-neighbors when a channel graph is declared.
  void merge_lp_inbox(LpId dst, std::uint64_t* nulls = nullptr);
  /// Empties all outboxes after a merge and folds their sizes into the
  /// sched counters. Coordinator-only.
  void clear_outboxes();
  void account_window();
  void process_lp_window(LpId i);
  /// The boundary sequence (barrier_hooks contract) for the window opening
  /// at `floor`: sets the window end, then runs the barrier hooks.
  void open_window_boundary(SimTime floor);
  void probe_window(SimTime floor);
  void publish_run_metrics();
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  // ---- structured run errors (util/error.hpp) ---------------------------
  // A throw from a handler or hook on a worker thread cannot simply
  // propagate: the other workers are parked at gates / epoch waits and the
  // process would deadlock at thread join. Workers instead record the
  // first exception here (which also raises the stop flag so every thread
  // unwinds through the normal protocol) and the run rethrows it on the
  // calling thread after the join. The engine is poisoned afterwards —
  // mid-window state is a torn prefix.
  void record_run_error();
  bool has_run_error() const;
  /// Rethrows the recorded error (if any) on the calling thread. Called at
  /// the end of every run, after finish_run.
  void rethrow_run_error();

  // ---- guard telemetry (guard/options.hpp) ------------------------------
  /// Publishes LP `i`'s post-window liveness cell (clock, events, queue
  /// depth/min). Called by process_lp_window; relaxed atomic stores, gated
  /// on guard_enabled_.
  void guard_note_lp(LpId i);
  /// True when the test freeze hook says LP `i` must not be claimed.
  bool guard_frozen(LpId i) const {
    return i == freeze_lp_ &&
           guard_.windows.load(std::memory_order_relaxed) >=
               freeze_after_windows_;
  }

  EngineOptions opts_;
  std::vector<Lp> lps_;
  SimTime now_ = 0;
  LpId current_lp_ = kInvalidLp;
  SimTime window_end_ = 0;
  bool running_ = false;
  bool threaded_ = false;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> cancel_requested_{false};
  /// Cached opts_.guard.enabled: the only guard cost a watchdog-off run
  /// pays is this branch.
  bool guard_enabled_ = false;
  guard::GuardTelemetry guard_;
  /// Installed by the active executor when it supports forced wake-up of
  /// its workers; invoked (under the mutex) by cancel_run.
  std::mutex cancel_mu_;
  std::function<void()> canceller_;
  /// First exception recorded by any thread during the run (record_run_
  /// error); rethrown on the calling thread after join.
  mutable std::mutex error_mu_;
  std::exception_ptr run_error_;
  /// Test-only stall injection (test_freeze_lp_clock).
  LpId freeze_lp_ = kInvalidLp;
  std::uint64_t freeze_after_windows_ = 0;
  /// Thread count of the last run (0 = sequential), for pdes.sched.*.
  std::int32_t run_threads_ = 0;
  RunStats stats_;
  std::vector<BarrierHook> barrier_hooks_;
  /// Declared cross-LP topology (empty = all-pairs). Finalized.
  ChannelGraph channels_;
  /// Per-destination sender masks: destination d owns words
  /// [d * mask_words_, (d + 1) * mask_words_), and bit s is set when LP s
  /// sent d at least one event this window. Allocated zeroed by begin_run;
  /// set by schedule(), consumed and zeroed by merge_lp_inbox(d).
  std::vector<std::atomic<std::uint64_t>> sender_masks_;
  std::size_t mask_words_ = 0;
  /// Sync aggregates of the current/last run (reset by begin_run).
  SyncStats sync_stats_;
  obs::WindowProbe* probe_ = nullptr;
  obs::Registry* registry_ = nullptr;

  void begin_run();
  void finish_run(SimTime floor);
  /// The sequential window loop shared by run() and the single-thread
  /// run_threaded short-circuit (begin_run/run_threads_ already done).
  RunStats run_window_loop();
  /// The channel-clock executor (channel_sync.cpp); run_threaded dispatches
  /// here for num_threads >= 2.
  RunStats run_channel_sync(std::int32_t num_threads);

  // Handler context for worker threads; each LP is owned by exactly one
  // thread within a window, so all queue/outbox mutations stay LP-local.
  // The context is tagged with the owning engine and saved/restored around
  // each LP's window, so engines that nest or interleave on one thread
  // (e.g. a handler driving an inner simulation) cannot read each other's
  // handler state.
  struct HandlerCtx {
    const Engine* engine = nullptr;
    SimTime now = 0;
    LpId lp = kInvalidLp;
  };
  // constinit tells every translation unit that the context needs no
  // dynamic initialization, so inline readers (now(), current_lp()) reach
  // it directly instead of testing for a TLS init function first. That
  // test's flags were reused by GCC 12's UBSan null check on the second
  // read in one function, which then reported a null HandlerCtx.
  static constinit thread_local HandlerCtx tls_ctx_;
};

}  // namespace massf
