#include "util/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace massf {

namespace {

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  // A mask wider than cpu_set_t (more than 1,024 CPUs): fall back to the
  // host's count.
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

std::size_t parallel_width(std::size_t items) {
  // Read once, so every call in the process agrees with the width its
  // caller sized per-worker state by.
  static const std::size_t cpus = affinity_cpus();
  return std::max<std::size_t>(1, std::min(cpus, items));
}

void parallel_for(
    std::size_t items,
    const std::function<void(std::size_t worker, std::size_t item)>& body) {
  const std::size_t width = parallel_width(items);
  if (width == 1) {
    for (std::size_t i = 0; i < items; ++i) body(0, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  const auto work = [&](std::size_t worker) {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < items; i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(worker, i);
      }
    } catch (...) {
      next.store(items, std::memory_order_relaxed);  // start no more items
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> workers;
    workers.reserve(width - 1);
    for (std::size_t w = 1; w < width; ++w) workers.emplace_back(work, w);
    work(0);
  }  // joins every worker
  if (error) std::rethrow_exception(error);
}

}  // namespace massf
