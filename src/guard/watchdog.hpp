// Liveness watchdog: a monitor thread over a running engine.
//
// The channel-clock executor (DESIGN.md section 5g) made the threaded
// run's progress depend on a distributed protocol: a misdeclared channel,
// a zero-lookahead cycle, or a protocol bug no longer crashes — it hangs.
// The watchdog samples the engine's GuardTelemetry (guard/options.hpp) on
// a fixed cadence; when the progress counter stops moving for the
// configured deadline it (1) renders a structured stall diagnostic —
// per-LP channel clock, events, queue depth and min event time, channel
// in-degree, sync wait counters — to stderr and, when configured, a JSON
// dump file (schema massf.guard.v1, DESIGN.md section 5h), then (2)
// cancels the run (Engine::cancel_run; the caller re-runs it, see
// run_mapping in campaign/runner.hpp), or aborts the process when the
// executor cannot be cancelled (a diagnosed corpse beats a wedged job).
//
// Lifecycle: construct with the engine and options, arm() before the run,
// disarm() (or destroy) after. The monitor only reads engine atomics and
// the finalized ChannelGraph, so it is safe — including under TSan —
// while the run executes.
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "guard/options.hpp"

namespace massf {
class Engine;
}  // namespace massf

namespace massf::obs {
class Registry;
}  // namespace massf::obs

namespace massf::guard {

class Watchdog {
 public:
  /// `registry` (optional) receives guard.stalls_detected /
  /// guard.dump_writes when the watchdog fires. The engine must outlive
  /// the armed watchdog.
  Watchdog(Engine& engine, GuardOptions options,
           obs::Registry* registry = nullptr);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the monitor thread. No-op when options.enabled is false.
  void arm();
  /// Stops and joins the monitor. Idempotent; called by the destructor.
  void disarm();

  /// True once the no-progress deadline expired and the diagnostic was
  /// emitted (sticky until the next arm()).
  bool fired() const;
  /// The JSON diagnostic of the last firing ("" when never fired).
  std::string last_diagnostic() const;

  /// Renders the stall diagnostic for `engine` right now (no deadline
  /// involved) — the JSON body the dump file receives. Exposed for tests
  /// and for one-shot "dump state" tooling.
  static std::string render_diagnostic(const Engine& engine,
                                       double stalled_for_s,
                                       double deadline_s);

 private:
  void monitor();
  void fire(double stalled_for_s);

  Engine& engine_;
  GuardOptions opts_;
  obs::Registry* registry_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool fired_ = false;
  std::string diagnostic_;
  std::thread thread_;
};

}  // namespace massf::guard
