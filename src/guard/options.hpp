// Supervision knobs and engine-side liveness telemetry.
//
// This header is the only part of src/guard the engine itself sees: it is
// header-only (no link dependency) so massf_pdes can embed a GuardOptions
// in EngineOptions and export a GuardTelemetry without depending on the
// watchdog machinery. The monitor thread and its diagnostics live in
// watchdog.{hpp,cpp} (massf_guard); recovery is one sequential re-run in
// campaign/runner.hpp (run_mapping).
//
// Telemetry discipline: every field the watchdog reads is a std::atomic
// updated with relaxed stores from the executor threads. The watchdog runs
// concurrently with the run it observes, so plain fields would be data
// races under TSan (and in fact). Updates are gated on GuardOptions::
// enabled, cached by the engine at construction, so a watchdog-off run
// pays nothing but a predictable branch per LP-window.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/sim_time.hpp"

namespace massf::guard {

struct GuardOptions {
  /// Master switch. Off by default; a scenario's `guard [ enabled 1 ]`
  /// or EngineOptions::guard turns it on.
  bool enabled = false;
  /// Wall-clock seconds without progress (windows closed or events
  /// processed) before the watchdog declares a stall. The watchdog samples
  /// every stall_deadline_s / 8, clamped to [1ms, 250ms]: fine enough that
  /// detection latency is dominated by the deadline itself, coarse enough
  /// to be free.
  double stall_deadline_s = 30.0;
  /// Where to write the JSON stall diagnostic ("" = stderr only).
  std::string dump_path;
};

/// Per-LP liveness cell, padded so the owning worker's relaxed stores do
/// not false-share with neighbours or with the watchdog's scan.
struct alignas(64) LpLiveness {
  /// Channel clock: end of the last window this LP completed (ticks).
  std::atomic<std::int64_t> clock{0};
  /// Events this LP has processed over the run so far.
  std::atomic<std::uint64_t> events{0};
  /// Pending-queue depth and min event time after the last completed
  /// window (min_time is kSimTimeMax when the queue was empty).
  std::atomic<std::uint64_t> queue_depth{0};
  std::atomic<std::int64_t> queue_min_time{kSimTimeMax};
};

/// Engine-owned progress telemetry. Sized in Engine::begin_run when the
/// guard is enabled; the watchdog holds a reference for the duration of
/// the run — including *across* begin_run, since callers arm the monitor
/// before calling run(). The per-LP cell array is therefore published
/// with release/acquire (cell count and pointer both atomic), and a grown
/// array retires its predecessor instead of freeing it so a monitor that
/// raced the swap still dereferences live memory.
struct GuardTelemetry {
  std::atomic<std::uint64_t> windows{0};  ///< windows fully accounted
  std::atomic<std::uint64_t> epochs{0};   ///< channel-sync epochs closed
  /// Stall-loop iterations in the channel executor (workers awake with no
  /// claimable LP). Climbs during a protocol stall — deliberately NOT part
  /// of progress(), it is the symptom the watchdog exists to catch.
  std::atomic<std::uint64_t> sync_stalls{0};

  std::size_t num_lps() const {
    return num_lps_.load(std::memory_order_acquire);
  }
  LpLiveness* cells() const { return cells_.load(std::memory_order_acquire); }
  /// The writer-side accessor (executor threads; index < the n last reset).
  LpLiveness& lp(std::size_t i) { return cells()[i]; }

  void reset(std::size_t n) {
    windows.store(0, std::memory_order_relaxed);
    epochs.store(0, std::memory_order_relaxed);
    sync_stalls.store(0, std::memory_order_relaxed);
    // Hide the cells while they are resized/zeroed: a concurrent monitor
    // sees count 0 and skips the per-LP scan.
    num_lps_.store(0, std::memory_order_release);
    if (n > capacity_) {
      auto fresh = std::make_unique<LpLiveness[]>(n);
      // unique_ptr array rather than vector: atomics are not movable.
      // The old array stays alive (retired, freed with the engine) so a
      // monitor holding the previous pointer never reads freed memory.
      if (storage_) retired_.push_back(std::move(storage_));
      storage_ = std::move(fresh);
      capacity_ = n;
      cells_.store(storage_.get(), std::memory_order_release);
    }
    for (std::size_t i = 0; i < n; ++i) {
      storage_[i].clock.store(0, std::memory_order_relaxed);
      storage_[i].events.store(0, std::memory_order_relaxed);
      storage_[i].queue_depth.store(0, std::memory_order_relaxed);
      storage_[i].queue_min_time.store(kSimTimeMax,
                                       std::memory_order_relaxed);
    }
    num_lps_.store(n, std::memory_order_release);
  }

  /// Monotone progress sample: changes whenever any LP processes events or
  /// a window/epoch closes anywhere. The watchdog fires when this stops
  /// moving for the deadline.
  std::uint64_t progress() const {
    std::uint64_t p = windows.load(std::memory_order_relaxed) +
                      epochs.load(std::memory_order_relaxed);
    const std::size_t n = num_lps();
    LpLiveness* c = cells();
    for (std::size_t i = 0; c != nullptr && i < n; ++i) {
      p += c[i].events.load(std::memory_order_relaxed);
    }
    return p;
  }

 private:
  std::atomic<std::size_t> num_lps_{0};
  std::atomic<LpLiveness*> cells_{nullptr};
  std::unique_ptr<LpLiveness[]> storage_;
  std::vector<std::unique_ptr<LpLiveness[]>> retired_;
  std::size_t capacity_ = 0;
};

}  // namespace massf::guard
