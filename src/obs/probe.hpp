// Engine-integrated window telemetry.
//
// A WindowProbe attached to the PDES engine (Engine::set_probe) records,
// for every synchronization window: the per-LP events processed, pending
// queue depths and outbox sizes at the barrier, and the *real* (not
// modeled) wall-clock split into the protocol's phases — barrier hooks,
// LP processing, barrier wait, and the outbox merge. This is the
// observable counterpart of the modeled cost accounting in RunStats: the
// paper's load-variation and sync-cost studies (Figures 3 and 5) read
// directly off these records.
//
// The probe is deliberately decoupled from the engine types: the engine
// feeds it plain scalars, so obs depends only on util and everything above
// pdes can consume the records. All recording happens on the coordinator
// thread between barriers — no synchronization needed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace massf::obs {

class Registry;

class WindowProbe {
 public:
  struct Window {
    std::uint64_t index = 0;
    double start_vtime_s = 0;  ///< window floor (virtual seconds)
    std::uint64_t events = 0;  ///< events processed this window, all LPs
    std::uint64_t max_lp_events = 0;  ///< busiest LP this window
    /// Pending events across all LP queues at the barrier (before the
    /// outbox exchange), and the deepest single queue.
    std::uint64_t queue_depth = 0;
    std::uint64_t max_queue_depth = 0;
    std::uint64_t outbox = 0;  ///< cross-LP events exchanged at the barrier
    /// Non-empty (src,dst) outbox buffers merged at the barrier — the
    /// batch count of the scheduler's grouped exchange (pdes.sched.*).
    std::uint64_t outbox_batches = 0;
    // Real wall-clock per phase (seconds).
    double hook_s = 0;     ///< barrier hooks (online injection, failover)
    double process_s = 0;  ///< LP event processing (span, all workers)
    /// Thread-seconds spent blocked on synchronization, summed over
    /// workers. Under barrier sync this is the idle formula
    /// num_threads * span - sum(per-worker busy); under channel sync
    /// (DESIGN.md section 5g) it is the measured protocol wait: stalls
    /// with no claimable work plus parks for the next epoch publish.
    /// Zero under the sequential executor. This is the real analog of
    /// the modeled imbalance cost; divide by the thread count for a
    /// per-worker mean comparable against span.
    double barrier_wait_s = 0;
    double merge_s = 0;  ///< outbox delivery + window accounting
  };

  /// Number of per-window records kept verbatim; beyond it the probe keeps
  /// aggregating into the summary but stops appending rows (long online
  /// runs would otherwise grow without bound). 0 = unlimited.
  explicit WindowProbe(std::size_t max_windows = 0)
      : max_windows_(max_windows) {}

  // ---- engine-side recording (coordinator thread, between barriers) ------

  void begin_window(std::uint64_t index, double start_vtime_s);
  void record_lp(std::int32_t lp, std::uint64_t events,
                 std::uint64_t queue_depth, std::uint64_t outbox,
                 std::uint64_t outbox_batches = 0);
  void end_window(double hook_s, double process_s, double barrier_wait_s,
                  double merge_s);

  // ---- consumer side -----------------------------------------------------

  const std::vector<Window>& windows() const { return windows_; }
  std::size_t num_lps() const { return lp_events_.size(); }
  /// Cumulative events per LP over all recorded windows.
  const std::vector<std::uint64_t>& lp_events() const { return lp_events_; }

  struct Summary {
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    double hook_s = 0;
    double process_s = 0;
    double barrier_wait_s = 0;
    double merge_s = 0;
    std::uint64_t max_queue_depth = 0;
    std::uint64_t outbox_events = 0;
    std::uint64_t outbox_batches = 0;
  };
  Summary summary() const { return summary_; }

  /// Publishes the summary into `registry` as `<prefix>.*` counters and
  /// gauges (schema documented in DESIGN.md).
  void publish(Registry& registry, std::string_view prefix = "pdes.probe") const;

  /// One CSV row per recorded window, with a fixed header (DESIGN.md).
  std::string to_csv() const;

 private:
  std::size_t max_windows_;
  Window current_;
  bool open_ = false;
  std::vector<Window> windows_;
  std::vector<std::uint64_t> lp_events_;
  Summary summary_;
};

}  // namespace massf::obs
