#include "obs/probe.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace massf::obs {

void WindowProbe::begin_window(std::uint64_t index, double start_vtime_s) {
  MASSF_CHECK(!open_);
  open_ = true;
  current_ = Window{};
  current_.index = index;
  current_.start_vtime_s = start_vtime_s;
}

void WindowProbe::record_lp(std::int32_t lp, std::uint64_t events,
                            std::uint64_t queue_depth, std::uint64_t outbox,
                            std::uint64_t outbox_batches) {
  MASSF_CHECK(open_ && lp >= 0);
  if (static_cast<std::size_t>(lp) >= lp_events_.size()) {
    lp_events_.resize(static_cast<std::size_t>(lp) + 1, 0);
  }
  lp_events_[static_cast<std::size_t>(lp)] += events;
  current_.events += events;
  current_.max_lp_events = std::max(current_.max_lp_events, events);
  current_.queue_depth += queue_depth;
  current_.max_queue_depth = std::max(current_.max_queue_depth, queue_depth);
  current_.outbox += outbox;
  current_.outbox_batches += outbox_batches;
}

void WindowProbe::end_window(double hook_s, double process_s,
                             double barrier_wait_s, double merge_s) {
  MASSF_CHECK(open_);
  open_ = false;
  current_.hook_s = hook_s;
  current_.process_s = process_s;
  current_.barrier_wait_s = barrier_wait_s;
  current_.merge_s = merge_s;

  ++summary_.windows;
  summary_.events += current_.events;
  summary_.hook_s += hook_s;
  summary_.process_s += process_s;
  summary_.barrier_wait_s += barrier_wait_s;
  summary_.merge_s += merge_s;
  summary_.max_queue_depth =
      std::max(summary_.max_queue_depth, current_.max_queue_depth);
  summary_.outbox_events += current_.outbox;
  summary_.outbox_batches += current_.outbox_batches;

  if (max_windows_ == 0 || windows_.size() < max_windows_) {
    windows_.push_back(current_);
  }
}

void WindowProbe::publish(Registry& registry, std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + ".windows").inc(summary_.windows);
  registry.counter(p + ".events").inc(summary_.events);
  registry.counter(p + ".outbox_events").inc(summary_.outbox_events);
  registry.counter(p + ".outbox_batches").inc(summary_.outbox_batches);
  registry.counter(p + ".max_queue_depth").inc(summary_.max_queue_depth);
  registry.gauge(p + ".hook_s").add(summary_.hook_s);
  registry.gauge(p + ".process_s").add(summary_.process_s);
  registry.gauge(p + ".barrier_wait_s").add(summary_.barrier_wait_s);
  registry.gauge(p + ".merge_s").add(summary_.merge_s);
}

}  // namespace massf::obs
