#include "guard/guarded_run.hpp"

#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"

namespace massf::guard {

GuardedRunReport GuardedRun::run(
    std::int32_t threads,
    const std::function<AttemptOutcome(const AttemptPlan&)>& attempt) {
  // Build the ladder up front: rung 0 is the requested configuration
  // (1 + max_retries tries), rung 1 drops to the sequential reference
  // executor — skipped when the request already is sequential.
  struct Rung {
    std::int32_t threads;
    int rung;
    int tries;
  };
  std::vector<Rung> ladder;
  const int retries = opts_.max_retries < 0 ? 0 : opts_.max_retries;
  ladder.push_back(Rung{threads, 0, 1 + retries});
  if (threads > 1) ladder.push_back(Rung{1, 1, 1});

  GuardedRunReport report;
  for (const Rung& rung : ladder) {
    for (int t = 0; t < rung.tries; ++t) {
      AttemptPlan plan;
      plan.attempt = report.attempts;
      plan.threads = rung.threads;
      plan.rung = rung.rung;
      // First attempt starts fresh; every later attempt resumes from the
      // latest checkpoint the earlier attempts managed to write (the
      // attempt fn falls back to a fresh start when none exists).
      plan.restore = report.attempts > 0;
      ++report.attempts;

      if (report.attempts > 1) {
        std::fprintf(stderr,
                     "massf guard: recovery attempt %d (threads=%d rung=%d "
                     "restore=%d)\n",
                     plan.attempt, plan.threads, plan.rung,
                     plan.restore ? 1 : 0);
        std::fflush(stderr);
        if (registry_ != nullptr) registry_->counter("guard.retries").inc();
      }

      const AttemptOutcome out = attempt(plan);
      switch (out.status) {
        case AttemptStatus::kCompleted: {
          report.completed = true;
          report.degraded_rung = rung.rung;
          if (registry_ != nullptr) {
            if (report.attempts > 1) {
              registry_->counter("guard.recoveries").inc();
            }
            registry_->gauge("guard.degraded_mode")
                .set(static_cast<double>(rung.rung));
          }
          return report;
        }
        case AttemptStatus::kStalled:
          ++report.stalls;
          report.last_error = out.message.empty()
                                  ? "watchdog cancelled a stalled run"
                                  : out.message;
          break;
        case AttemptStatus::kFailed:
          ++report.errors;
          report.last_error = out.message;
          std::fprintf(stderr, "massf guard: attempt %d failed: %s\n",
                       plan.attempt, out.message.c_str());
          std::fflush(stderr);
          break;
      }
    }
  }
  if (registry_ != nullptr) {
    registry_->gauge("guard.degraded_mode").set(-1.0);
  }
  std::fprintf(stderr,
               "massf guard: recovery ladder exhausted after %d attempts: "
               "%s\n",
               report.attempts, report.last_error.c_str());
  std::fflush(stderr);
  return report;
}

}  // namespace massf::guard
