// Auto-recovery by re-running, with a degradation ladder.
//
// GuardedRun drives repeated *attempts* of a run the caller knows how to
// (re)build — the campaign runner re-runs a Scenario, the tests rebuild a
// bare engine — until one completes or the ladder is exhausted. On a stall
// (watchdog cancelled the run) or a recoverable EngineError, the next
// attempt re-runs from t = 0 (the caller's attempt fn rebuilds its engine
// stack — GuardedRun only sequences and accounts) under a progressively
// safer configuration:
//
//   rung 0   retry the same configuration (x max_retries)
//   rung 1   reduce to one thread (the sequential reference executor,
//            which has no synchronization protocol to stall)
//   fail     re-raise with diagnostics
//
// Determinism contract: every attempt starts from the same construction
// state, and every executor produces the bit-identical trace — so a
// recovered run yields the same results (golden checksum included) as an
// uninterrupted one. Every action lands in guard.* metrics (DESIGN.md
// section 5h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace massf::obs {
class Registry;
}  // namespace massf::obs

namespace massf::guard {

/// The configuration GuardedRun asks one attempt to run under.
struct AttemptPlan {
  int attempt = 0;  ///< 0-based attempt index
  std::int32_t threads = 0;  ///< 0/1 = sequential
  /// Degradation rung this plan sits on (0 = original configuration).
  int rung = 0;
};

enum class AttemptStatus {
  kCompleted,  ///< ran to its natural end
  kStalled,    ///< watchdog cancelled it (Engine::run_cancelled())
  kFailed,     ///< recoverable EngineError (caller caught it)
};

struct AttemptOutcome {
  AttemptStatus status = AttemptStatus::kCompleted;
  std::string message;  ///< diagnostic for kFailed / kStalled
};

struct GuardedRunReport {
  bool completed = false;
  int attempts = 0;          ///< attempts actually executed
  std::uint64_t stalls = 0;  ///< attempts that ended in a watchdog cancel
  std::uint64_t errors = 0;  ///< attempts that ended in an EngineError
  /// Rung the completing attempt ran on (0 = never degraded); -1 when
  /// nothing completed.
  int degraded_rung = -1;
  std::string last_error;  ///< message of the final failure ("" if none)
};

class GuardedRun {
 public:
  struct Options {
    /// Same-configuration retries before degrading (rung 0 width).
    int max_retries = 1;
  };

  /// `registry` (optional) receives the guard.* recovery metrics.
  explicit GuardedRun(Options options, obs::Registry* registry = nullptr)
      : opts_(options), registry_(registry) {}

  /// Runs `attempt` under the ladder starting from `threads`. The attempt
  /// fn must be re-entrant: each call rebuilds its engine stack from
  /// scratch and runs from t = 0.
  GuardedRunReport run(
      std::int32_t threads,
      const std::function<AttemptOutcome(const AttemptPlan&)>& attempt);

 private:
  Options opts_;
  obs::Registry* registry_;
};

}  // namespace massf::guard
