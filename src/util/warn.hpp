// Recoverable configuration/environment complaints, surfaced instead of
// silently papered over (run_threaded used to fall back without a trace
// when hardware_concurrency() == 0).
//
// A warning is an EngineError that did not need to be fatal: same
// category vocabulary (util/error.hpp), but the run continues under the
// adjusted configuration. Warnings go to stderr once at emit time and
// into a process-wide log that tests (and the scenario runner) can
// inspect with snapshot()/clear(). The log is bounded: after kMaxKept
// entries only the counter advances, so a warning in a per-window path
// cannot grow memory without bound.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace massf {

struct EngineWarning {
  ErrorCategory category = ErrorCategory::kConfig;
  std::string message;
};

class WarningLog {
 public:
  static constexpr std::size_t kMaxKept = 64;

  static WarningLog& instance();

  /// Records the warning and prints one `massf: warning (<category>): ...`
  /// line to stderr. Thread-safe.
  void emit(ErrorCategory category, std::string message);

  /// Everything emitted since the last clear() (at most kMaxKept entries).
  std::vector<EngineWarning> snapshot() const;
  /// Total emits since the last clear(), including dropped ones.
  std::size_t count() const;
  void clear();

 private:
  WarningLog() = default;
};

/// Convenience: WarningLog::instance().emit(...).
void warn(ErrorCategory category, std::string message);

/// The hardware_concurrency()==0 fallback, surfaced: when the host's
/// concurrency is unreportable the spin budgets collapse to zero and every
/// channel-clock stall yields at once (pdes/channel_sync.cpp). Emits a
/// config-category warning once per process and returns true on the call
/// that emitted it; later calls (or hc > 0) return false.
bool warn_unknown_host_concurrency(unsigned hardware_concurrency);

}  // namespace massf
