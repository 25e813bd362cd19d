// Engine::run_threaded: validates the thread count and picks the executor.
// One thread runs the sequential window loop; two or more run the
// channel-clock executor (channel_sync.cpp).
#include <algorithm>
#include <atomic>
#include <thread>

#include "pdes/engine.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace massf {

bool warn_unknown_host_concurrency(unsigned hardware_concurrency) {
  if (hardware_concurrency != 0) return false;
  static std::atomic<bool> warned{false};
  if (warned.exchange(true, std::memory_order_relaxed)) return false;
  MASSF_LOG(kWarn) << "hardware_concurrency() == 0: host parallelism is "
                      "unreportable, spin budgets are disabled and every "
                      "channel-clock stall yields at once "
                      "(pdes/channel_sync.cpp)";
  return true;
}

RunStats Engine::run_threaded(std::int32_t num_threads) {
  MASSF_CHECK(num_threads >= 1);
  const std::int32_t requested = num_threads;
  num_threads = std::min<std::int32_t>(num_threads,
                                       std::max<std::int32_t>(1, num_lps()));
  if (num_threads < requested) {
    MASSF_LOG(kWarn) << "run_threaded: " << requested
                     << " threads requested for " << num_lps()
                     << " LPs; clamped to " << num_threads
                     << " (a thread with no claimable LP would only spin "
                        "at the gates)";
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
