// Channel-clock threaded executor (see channel_sync.hpp for the model).
//
// Protocol state is one epoch-tagged stage word per LP,
//   (window_epoch << 3) | {idle, processing, processed, merging, merged},
// monotonically increasing over the run. Worker threads scan for claimable
// work: processing an LP's window has no dependencies; merging LP d's
// inbox becomes legal the instant d and all of d's in-neighbors are
// processed — each in-neighbor's stage word *is* that channel's clock, and
// reading it at >= processed is the null-message "your clock reached my
// window end" guarantee. There is no global gate inside the window: an LP
// whose neighbors are already processed merges immediately, and threads
// only stall when some specific channel's clock is behind.
//
// Quiescence detection: the thread that completes the window's last merge
// observes merged_count == n — every channel clock has collapsed to the
// window end, which is exactly the global quiescent point the sequential
// loop reaches after its merge phase. That thread becomes the *epoch
// closer*: it runs the unchanged boundary sequence (probe, outbox
// accounting, EngineHooks barrier hooks, next-floor scan) single-
// threadedly, then publishes the next epoch with one release store on the
// epoch word (the only futex wake of the whole window). Hook semantics are
// therefore identical to the sequential reference — only who waits on whom
// changed.
//
// Memory ordering. Claims CAS the stage word acq_rel (synchronizing with
// the previous owner's release store); merge-readiness reads neighbor
// stages acquire (synchronizing with their processors); the closer reaches
// every worker's writes through the merged_count acq_rel chain; and the
// epoch word's release/acquire pair republishes the closer's boundary
// writes (window floor, hook effects, stage resets) to every worker. A
// worker only claims work tagged with an epoch it acquired from the epoch
// word, so no claim can outrun the boundary that armed it.
#include "pdes/channel_sync.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/probe.hpp"
#include "pdes/engine.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace massf {

void ChannelGraph::add(LpId src, LpId dst, SimTime lookahead) {
  MASSF_ENFORCE(!finalized_, ErrorCategory::kTopology,
                "ChannelGraph::add after the graph was finalized "
                "(installed via Engine::set_channels)");
  MASSF_ENFORCE(src >= 0 && dst >= 0, ErrorCategory::kTopology,
                "channel endpoints must be non-negative LP ids (got " +
                    std::to_string(src) + " -> " + std::to_string(dst) + ")");
  MASSF_ENFORCE(lookahead > 0, ErrorCategory::kTopology,
                "channel lookahead must be > 0");
  if (src == dst) return;  // same-LP sends never cross a channel
  channels_.push_back(Channel{src, dst, lookahead});
  min_lookahead_ = std::min(min_lookahead_, lookahead);
}

void ChannelGraph::finalize(LpId num_lps) {
  if (finalized_) return;
  finalized_ = true;
  if (channels_.empty()) return;
  std::sort(channels_.begin(), channels_.end(),
            [](const Channel& a, const Channel& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.lookahead < b.lookahead;
            });
  // Duplicates keep the smallest lookahead (first after the sort).
  channels_.erase(std::unique(channels_.begin(), channels_.end(),
                              [](const Channel& a, const Channel& b) {
                                return a.src == b.src && a.dst == b.dst;
                              }),
                  channels_.end());
  in_.assign(static_cast<std::size_t>(num_lps), {});
  out_.assign(static_cast<std::size_t>(num_lps), {});
  for (const Channel& c : channels_) {
    if (c.src >= num_lps || c.dst >= num_lps) {
      MASSF_THROW(ErrorCategory::kTopology,
                  "channel " + std::to_string(c.src) + " -> " +
                      std::to_string(c.dst) +
                      " names an unregistered LP (engine has " +
                      std::to_string(num_lps) + ")");
    }
    // Channels are (src, dst)-sorted, so both lists come out sorted —
    // in-neighbor order is the deterministic merge order.
    in_[static_cast<std::size_t>(c.dst)].push_back(c.src);
    out_[static_cast<std::size_t>(c.src)].push_back(c.dst);
  }
}

bool ChannelGraph::allows(LpId src, LpId dst) const {
  if (channels_.empty()) return true;  // unknown topology: all-pairs
  const std::vector<LpId>& outs = out_[static_cast<std::size_t>(src)];
  return std::binary_search(outs.begin(), outs.end(), dst);
}

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Busy-wait budget for `parties` synchronizing threads. Spinning only
/// pays when every party plus the main thread can run at once; a host
/// reporting fewer cores — or 0, hardware_concurrency()'s "unknown" value
/// — is treated as oversubscribed and yields immediately (spinning there
/// only delays whichever thread everyone is waiting for).
std::int32_t spin_budget(std::int32_t parties) {
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc == 0) return 0;  // unknown host: assume oversubscribed
  return hc >= static_cast<unsigned>(parties) + 1 ? 512 : 0;
}

// Stage word layout: (epoch << kPhaseBits) | phase. Monotonic over a run.
constexpr std::uint64_t kIdle = 0;
constexpr std::uint64_t kProcessed = 2;
constexpr std::uint64_t kMerging = 3;
constexpr std::uint64_t kMerged = 4;
constexpr std::uint64_t kProcessing = 1;
constexpr int kPhaseBits = 3;

struct alignas(64) PaddedStage {
  std::atomic<std::uint64_t> v{0};
};

// Per-thread accumulators. Wait gauges are atomic<double> because the
// epoch closer reads them mid-run for probe rows; everything else is
// owner-thread-only and folded after the join.
struct alignas(64) ThreadAccum {
  std::atomic<double> channel_wait_s{0.0};
  std::atomic<double> epoch_wait_s{0.0};
  std::uint64_t stalls = 0;
  std::uint64_t null_events = 0;
};

void add_relaxed(std::atomic<double>& a, double d) {
  // Single-writer accumulator: plain read-modify-write is race-free.
  a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

}  // namespace

RunStats Engine::run_channel_sync(std::int32_t num_threads) {
  MASSF_CHECK(num_threads >= 2);
  begin_run();
  const LpId n = num_lps();
  const bool timed = probe_ != nullptr;

  // First boundary on the calling thread, before any worker exists — the
  // same quiescent point the sequential loop opens its first window at.
  const SimTime floor = next_event_floor();
  if (floor >= opts_.end_time || floor == kSimTimeMax || stop_requested()) {
    finish_run(floor);
    return stats_;
  }
  const auto hook_t0 = timed ? Clock::now() : Clock::time_point{};
  open_window_boundary(floor);
  double pending_hook_s = timed ? elapsed_s(hook_t0, Clock::now()) : 0;

  threaded_ = true;
  run_threads_ = num_threads;

  // ---- shared protocol state ---------------------------------------------
  std::vector<PaddedStage> stage(static_cast<std::size_t>(n));
  std::vector<ThreadAccum> accum(static_cast<std::size_t>(num_threads));
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::int32_t> processed_count{0};
  std::atomic<std::int32_t> merged_count{0};
  std::atomic<bool> done{false};
  // Closer-to-closer state, ordered by the epoch word's release/acquire.
  SimTime window_floor = floor;
  SimTime final_floor = floor;
  double last_wait_sum = 0;
  Clock::time_point window_open_t = timed ? Clock::now() : Clock::time_point{};
  const auto run_t0 = window_open_t;
  // Publish instants (seconds since run start) of recent epochs, slot
  // e & 63: lets a thread woken from an epoch park attribute only the
  // protocol-imposed part of its sleep (up to the publish), not scheduler
  // latency after release. Probe-attached runs only.
  std::array<std::atomic<double>, 64> publish_time_s{};

  const bool dense = channels_.empty();
  const std::int32_t spin = spin_budget(num_threads);

  // True when every in-neighbor channel clock for LP i reached the window
  // end of epoch `e` (their stage is >= processed for e).
  const auto neighbors_processed = [&](LpId i, std::uint64_t e) {
    if (dense) {
      return processed_count.load(std::memory_order_acquire) == n;
    }
    const std::uint64_t want =
        (e << kPhaseBits) | kProcessed;
    for (const LpId s : channels_.in_neighbors(i)) {
      if (stage[static_cast<std::size_t>(s)].v.load(
              std::memory_order_acquire) < want) {
        return false;
      }
    }
    return true;
  };

  // Runs on the thread whose merge completed the window: every channel
  // clock has collapsed to the window end — the global quiescent point.
  // Executes the boundary exactly as the sequential loop does, then arms
  // and publishes the next epoch (or raises done).
  const auto close_epoch = [&](std::uint64_t e) {
    const auto t2 = timed ? Clock::now() : Clock::time_point{};
    if (probe_ != nullptr) probe_window(window_floor);
    clear_outboxes();
    account_window();
    ++sync_stats_.quiescence_epochs;
    guard_.epochs.fetch_add(1, std::memory_order_relaxed);
    if (timed) {
      // Close the probe row before the next boundary's hooks run. The
      // wait charged to the row is the protocol-imposed wait accumulated
      // across all threads since the previous close.
      double wait_sum = 0;
      for (const ThreadAccum& a : accum) {
        wait_sum += a.channel_wait_s.load(std::memory_order_relaxed) +
                    a.epoch_wait_s.load(std::memory_order_relaxed);
      }
      probe_->end_window(pending_hook_s, elapsed_s(window_open_t, t2),
                         wait_sum - last_wait_sum,
                         elapsed_s(t2, Clock::now()));
      last_wait_sum = wait_sum;
    }

    SimTime next = next_event_floor();
    bool cont =
        next < opts_.end_time && next != kSimTimeMax && !stop_requested();
    if (cont) {
      const auto th = timed ? Clock::now() : Clock::time_point{};
      try {
        open_window_boundary(next);
      } catch (...) {
        // A boundary hook threw at the quiescent point: record (raises the
        // stop flag) and end the run at this boundary.
        record_run_error();
        cont = false;
      }
      if (timed) pending_hook_s = elapsed_s(th, Clock::now());
    }

    if (!cont) {
      final_floor = next;
      done.store(true, std::memory_order_release);
      epoch.store(e + 1, std::memory_order_release);
      epoch.notify_all();
      return;
    }
    window_floor = next;
    processed_count.store(0, std::memory_order_relaxed);
    merged_count.store(0, std::memory_order_relaxed);
    const std::uint64_t armed = ((e + 1) << kPhaseBits) | kIdle;
    for (PaddedStage& s : stage) {
      s.v.store(armed, std::memory_order_relaxed);
    }
    if (timed) {
      window_open_t = Clock::now();
      publish_time_s[(e + 1) & 63].store(elapsed_s(run_t0, window_open_t),
                                         std::memory_order_relaxed);
    }
    epoch.store(e + 1, std::memory_order_release);
    epoch.notify_all();
  };

  const auto worker = [&](std::int32_t self) {
    ThreadAccum& mine = accum[static_cast<std::size_t>(self)];
    // Stagger scan starts so threads don't fight over the same claim.
    const LpId offset =
        static_cast<LpId>((static_cast<std::int64_t>(n) * self) /
                          num_threads);
    std::uint64_t e = epoch.load(std::memory_order_acquire);
    for (;;) {
      if (done.load(std::memory_order_acquire)) return;
      const std::uint64_t base = e << kPhaseBits;
      bool did_work = false;
      bool closed = false;
      for (LpId k = 0; k < n && !closed; ++k) {
        const LpId i = (offset + k) % n;
        // Test-only stall injection: a frozen LP is never claimed, so its
        // channel clock stops and the epoch cannot close — the synthetic
        // protocol stall the watchdog tests exercise.
        if (guard_frozen(i)) continue;
        PaddedStage& st = stage[static_cast<std::size_t>(i)];
        std::uint64_t s = st.v.load(std::memory_order_acquire);
        if (s == base + kIdle) {
          std::uint64_t expect = base + kIdle;
          if (st.v.compare_exchange_strong(expect, base + kProcessing,
                                           std::memory_order_acq_rel)) {
            try {
              process_lp_window(i);
            } catch (...) {
              record_run_error();  // first error wins; stop flag raised
            }
            st.v.store(base + kProcessed, std::memory_order_release);
            processed_count.fetch_add(1, std::memory_order_acq_rel);
            did_work = true;
            s = base + kProcessed;
          } else {
            s = expect;
          }
        }
        if (s == base + kProcessed && neighbors_processed(i, e)) {
          std::uint64_t expect = base + kProcessed;
          if (st.v.compare_exchange_strong(expect, base + kMerging,
                                           std::memory_order_acq_rel)) {
            try {
              merge_lp_inbox(i, &mine.null_events);
            } catch (...) {
              record_run_error();
            }
            st.v.store(base + kMerged, std::memory_order_release);
            did_work = true;
            if (merged_count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                n) {
              close_epoch(e);
              closed = true;
            }
          }
        }
      }
      const std::uint64_t cur = epoch.load(std::memory_order_acquire);
      if (cur != e) {
        e = cur;
        continue;
      }
      if (closed || did_work) continue;
      if (merged_count.load(std::memory_order_acquire) ==
          static_cast<std::int32_t>(n)) {
        // Window fully merged; the closer is running the boundary. Park on
        // the epoch word — the one futex of the protocol.
        if (timed) {
          const double t0 = elapsed_s(run_t0, Clock::now());
          epoch.wait(e, std::memory_order_acquire);
          const double now = elapsed_s(run_t0, Clock::now());
          const double pub =
              publish_time_s[(e + 1) & 63].load(std::memory_order_relaxed);
          add_relaxed(mine.epoch_wait_s,
                      std::clamp(pub - t0, 0.0, now - t0));
        } else {
          epoch.wait(e, std::memory_order_acquire);
        }
      } else {
        // Some channel clock is behind (a neighbor is still processing):
        // stall briefly without sleeping — the stage transition that frees
        // us has no wake channel, and it is at most one LP window away.
        ++mine.stalls;
        if (guard_enabled_) {
          guard_.sync_stalls.fetch_add(1, std::memory_order_relaxed);
        }
        if (timed) {
          const auto t0 = Clock::now();
          for (std::int32_t r = 0; r < spin; ++r) cpu_relax();
          std::this_thread::yield();
          add_relaxed(mine.channel_wait_s, elapsed_s(t0, Clock::now()));
        } else {
          for (std::int32_t r = 0; r < spin; ++r) cpu_relax();
          std::this_thread::yield();
        }
      }
    }
  };

  // Forced cancellation (Engine::cancel_run, from the stall watchdog):
  // raise done and bump the epoch word so parked workers wake — an
  // atomic wait only returns when the value actually changed, so a bare
  // notify would be lost. Every worker reaches its loop top and returns;
  // a stray e+1 store from a racing closer is harmless because done is
  // checked first.
  {
    std::lock_guard<std::mutex> lk(cancel_mu_);
    canceller_ = [&done, &epoch] {
      done.store(true, std::memory_order_release);
      epoch.fetch_add(1, std::memory_order_release);
      epoch.notify_all();
    };
  }

  std::vector<std::jthread> workers;
  workers.reserve(static_cast<std::size_t>(num_threads - 1));
  for (std::int32_t t = 1; t < num_threads; ++t) {
    workers.emplace_back(worker, t);
  }
  worker(0);
  workers.clear();  // join

  {
    // The canceller captures this frame's locals; it must not outlive them.
    std::lock_guard<std::mutex> lk(cancel_mu_);
    canceller_ = nullptr;
  }

  for (const ThreadAccum& a : accum) {
    sync_stats_.stalls += a.stalls;
    sync_stats_.null_events += a.null_events;
    sync_stats_.channel_wait_s +=
        a.channel_wait_s.load(std::memory_order_relaxed);
    sync_stats_.epoch_wait_s +=
        a.epoch_wait_s.load(std::memory_order_relaxed);
  }
  threaded_ = false;
  finish_run(final_floor);
  rethrow_run_error();
  return stats_;
}

}  // namespace massf
