// Engine::run_threaded: validates the thread count and picks the executor.
// One thread runs the sequential window loop; two or more run the
// channel-clock executor (channel_sync.cpp).
#include <algorithm>
#include <string>
#include <thread>

#include "pdes/engine.hpp"
#include "util/check.hpp"
#include "util/warn.hpp"

namespace massf {

RunStats Engine::run_threaded(std::int32_t num_threads) {
  MASSF_CHECK(num_threads >= 1);
  const std::int32_t requested = num_threads;
  num_threads = std::min<std::int32_t>(num_threads,
                                       std::max<std::int32_t>(1, num_lps()));
  if (num_threads < requested) {
    warn(ErrorCategory::kConfig,
         "run_threaded: " + std::to_string(requested) + " threads requested "
         "for " + std::to_string(num_lps()) + " LPs; clamped to " +
         std::to_string(num_threads) +
         " (a thread with no claimable LP would only spin at the gates)");
  }
  warn_unknown_host_concurrency(std::thread::hardware_concurrency());
  if (num_threads == 1) {
    // One thread has nobody to synchronize with: run the sequential window
    // loop. Only the reported thread count differs from run() — RunStats,
    // probe rows, and the event trace are identical.
    begin_run();
    run_threads_ = 1;
    return run_window_loop();
  }
  return run_channel_sync(num_threads);
}

}  // namespace massf
