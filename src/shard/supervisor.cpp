#include "shard/supervisor.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "guard/guarded_run.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/warn.hpp"

namespace massf::shard {
namespace {

using Clock = std::chrono::steady_clock;

double bits_double(std::uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// The failure artifact: control page + ring cursors, enough to see which
/// shard wedged on which channel (uploaded by the nightly job).
void dump_rings(const ShardShm& shm, const std::string& path,
                const std::string& reason) {
  if (path.empty()) return;
  const ShmHeader& hdr = shm.header();
  std::ostringstream out;
  out << "{\n  \"schema\": \"massf.shard.dump.v1\",\n";
  out << "  \"reason\": \"" << reason << "\",\n";
  out << "  \"num_shards\": " << hdr.num_shards << ",\n";
  out << "  \"num_lps\": " << hdr.num_lps << ",\n";
  out << "  \"slots\": [\n";
  for (std::uint32_t k = 0; k < hdr.num_shards; ++k) {
    const ControlSlot& s = shm.slot(static_cast<std::int32_t>(k));
    out << "    {\"shard\": " << k << ", \"epoch\": "
        << s.epoch.load(std::memory_order_relaxed) << ", \"state\": "
        << s.state.load(std::memory_order_relaxed) << ", \"pid\": "
        << s.pid.load(std::memory_order_relaxed) << ", \"windows\": "
        << s.heartbeat_windows.load(std::memory_order_relaxed)
        << ", \"events\": "
        << s.heartbeat_events.load(std::memory_order_relaxed)
        << ", \"ring_stalls\": "
        << s.ring_stalls.load(std::memory_order_relaxed) << "}"
        << (k + 1 < hdr.num_shards ? ",\n" : "\n");
  }
  out << "  ],\n  \"rings\": [\n";
  bool first = true;
  for (std::uint32_t i = 0; i < hdr.num_shards; ++i) {
    for (std::uint32_t j = 0; j < hdr.num_shards; ++j) {
      if (i == j) continue;
      const ShmRing ring = shm.ring(static_cast<std::int32_t>(i),
                                    static_cast<std::int32_t>(j));
      if (!first) out << ",\n";
      first = false;
      out << "    {\"from\": " << i << ", \"to\": " << j
          << ", \"used_bytes\": " << ring.used() << "}";
    }
  }
  out << "\n  ]\n}\n";
  std::ofstream f(path);
  f << out.str();
}

/// Kills what is left, reaps, and re-raises — preferring a worker's own
/// structured EngineError over the supervisor's summary.
[[noreturn]] void fail_run(const ShardShm& shm, const ShardOptions& opts,
                           std::int32_t shards, const std::vector<pid_t>& pids,
                           std::vector<bool>* exited,
                           const std::string& reason) {
  dump_rings(shm, opts.ring_dump_path, reason);
  shm.request_abort();
  for (std::int32_t k = 0; k < shards; ++k) {
    if (!(*exited)[k] && pids[k] > 0) ::kill(pids[k], SIGKILL);
  }
  for (std::int32_t k = 0; k < shards; ++k) {
    if (!(*exited)[k] && pids[k] > 0) {
      int status = 0;
      ::waitpid(pids[k], &status, 0);
      (*exited)[k] = true;
    }
  }
  for (std::int32_t k = 0; k < shards; ++k) {
    const ControlSlot& s = shm.slot(k);
    if (s.state.load(std::memory_order_acquire) ==
        static_cast<std::uint32_t>(WorkerState::kError)) {
      const auto cat = static_cast<ErrorCategory>(
          s.error_category.load(std::memory_order_relaxed));
      MASSF_THROW(cat, "shard worker " + std::to_string(k) + " failed: " +
                           std::string(s.error_message) + " (" + reason + ")");
    }
  }
  MASSF_THROW(ErrorCategory::kProtocolStall, reason);
}

std::uint64_t progress_sample(const ShardShm& shm, std::int32_t shards) {
  std::uint64_t sum = 0;
  for (std::int32_t k = 0; k < shards; ++k) {
    const ControlSlot& s = shm.slot(k);
    sum += s.epoch.load(std::memory_order_relaxed);
    sum += s.heartbeat_windows.load(std::memory_order_relaxed);
    sum += s.heartbeat_events.load(std::memory_order_relaxed);
  }
  return sum;
}

/// The per-worker watchdog: poll child liveness + shared-page progress
/// until every worker exits cleanly; any crash, nonzero exit, or frozen
/// progress counter aborts the run with diagnostics.
void supervise(const ShardShm& shm, const ShardOptions& opts,
               std::int32_t shards, const std::vector<pid_t>& pids) {
  std::vector<bool> exited(static_cast<std::size_t>(shards), false);
  std::int32_t live = shards;
  std::uint64_t last_progress = ~std::uint64_t{0};
  auto last_change = Clock::now();
  while (live > 0) {
    for (std::int32_t k = 0; k < shards; ++k) {
      if (exited[static_cast<std::size_t>(k)]) continue;
      int status = 0;
      const pid_t r = ::waitpid(pids[k], &status, WNOHANG);
      if (r == 0) continue;
      exited[static_cast<std::size_t>(k)] = true;
      --live;
      const bool clean =
          r == pids[k] && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
          shm.slot(k).state.load(std::memory_order_acquire) ==
              static_cast<std::uint32_t>(WorkerState::kDone);
      if (!clean) {
        std::string why;
        if (r == pids[k] && WIFSIGNALED(status)) {
          why = "shard worker " + std::to_string(k) + " killed by signal " +
                std::to_string(WTERMSIG(status));
        } else if (r == pids[k] && WIFEXITED(status)) {
          why = "shard worker " + std::to_string(k) + " exited with code " +
                std::to_string(WEXITSTATUS(status));
        } else {
          why = "shard worker " + std::to_string(k) + " lost (waitpid)";
        }
        fail_run(shm, opts, shards, pids, &exited, why);
      }
    }
    if (live == 0) break;
    const std::uint64_t progress = progress_sample(shm, shards);
    if (progress != last_progress) {
      last_progress = progress;
      last_change = Clock::now();
    } else if (std::chrono::duration<double>(Clock::now() - last_change)
                   .count() > opts.stall_deadline_s) {
      fail_run(shm, opts, shards, pids, &exited,
               "no cross-shard progress for " +
                   std::to_string(opts.stall_deadline_s) +
                   "s (stall deadline)");
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opts.poll_interval_s));
  }
}

ShardResult assemble(const ShardShm& shm, const Engine& engine,
                     std::int32_t shards) {
  ShardResult result;
  result.shards = shards;
  const std::int32_t n = engine.num_lps();
  RunStats& st = result.stats;
  const ControlSlot& s0 = shm.slot(0);
  st.num_windows = s0.fin_num_windows.load(std::memory_order_relaxed);
  st.modeled_wall_s =
      bits_double(s0.fin_wall_bits.load(std::memory_order_relaxed));
  st.modeled_sync_s =
      bits_double(s0.fin_sync_bits.load(std::memory_order_relaxed));
  st.modeled_migrate_s =
      bits_double(s0.fin_migrate_bits.load(std::memory_order_relaxed));
  st.end_vtime =
      std::min(static_cast<SimTime>(
                   s0.fin_floor.load(std::memory_order_relaxed)),
               engine.options().end_time);
  st.events_per_lp.assign(static_cast<std::size_t>(n), 0);
  st.busy_s.assign(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    const LpCell& cell = shm.lp(i);
    const std::uint64_t events = cell.events.load(std::memory_order_relaxed);
    st.events_per_lp[static_cast<std::size_t>(i)] = events;
    st.total_events += events;
    st.busy_s[static_cast<std::size_t>(i)] =
        bits_double(cell.busy_bits.load(std::memory_order_relaxed));
    result.checksum = result.checksum * 31 +
                      cell.checksum.load(std::memory_order_relaxed);
  }
  for (std::int32_t k = 0; k < shards; ++k) {
    const ControlSlot& s = shm.slot(k);
    st.cross_lp_events += s.fin_cross_events.load(std::memory_order_relaxed);
    st.merge_batches += s.fin_merge_batches.load(std::memory_order_relaxed);
    result.metrics.cross_shard_events +=
        s.cross_shard_events.load(std::memory_order_relaxed);
    result.metrics.batch_bytes +=
        s.batch_bytes.load(std::memory_order_relaxed);
    result.metrics.frames += s.frames.load(std::memory_order_relaxed);
    result.metrics.ring_stalls +=
        s.ring_stalls.load(std::memory_order_relaxed);
    result.metrics.ring_wait_s +=
        static_cast<double>(s.ring_wait_ns.load(std::memory_order_relaxed)) *
        1e-9;
    result.metrics.control_waits +=
        s.control_waits.load(std::memory_order_relaxed);
    result.metrics.control_wait_s +=
        static_cast<double>(
            s.control_wait_ns.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return result;
}

void publish_metrics(obs::Registry* registry, const ShardResult& result) {
  if (registry == nullptr) return;
  registry->counter("pdes.shard.workers")
      .inc(static_cast<std::uint64_t>(result.shards));
  registry->counter("pdes.shard.cross_events")
      .inc(result.metrics.cross_shard_events);
  registry->counter("pdes.shard.batch_bytes").inc(result.metrics.batch_bytes);
  registry->counter("pdes.shard.frames").inc(result.metrics.frames);
  registry->counter("pdes.shard.ring_stalls").inc(result.metrics.ring_stalls);
  registry->counter("pdes.shard.control_waits")
      .inc(result.metrics.control_waits);
  registry->gauge("pdes.shard.ring_wait_s").set(result.metrics.ring_wait_s);
  registry->gauge("pdes.shard.control_wait_s")
      .set(result.metrics.control_wait_s);
  registry->gauge("pdes.shard.degraded_rung")
      .set(static_cast<double>(result.degraded_rung));
}

WorkerOptions worker_options(const ShardOptions& opts, std::int32_t shard,
                             std::function<std::uint64_t(LpId)> lp_checksum) {
  WorkerOptions wo;
  wo.shard = shard;
  wo.ckpt_every = opts.ckpt_every;
  wo.ckpt_dir = opts.ckpt_dir;
  wo.migrations = opts.migrations;
  wo.lp_checksum = std::move(lp_checksum);
  if (shard == opts.kill_shard) {
    wo.kill_after_windows = opts.kill_after_windows;
    wo.kill_in_send = opts.kill_in_send;
  }
  return wo;
}

/// One sharded attempt in fork mode over the (pristine, never-run) parent
/// workload: children inherit the built engine copy-on-write.
ShardResult attempt_fork(const ShardOptions& opts, const ShardWorkload& w) {
  const std::int32_t n = w.engine->num_lps();
  ShardShm shm =
      ShardShm::create_anonymous(static_cast<std::uint32_t>(opts.shards),
                                 static_cast<std::uint32_t>(n),
                                 opts.ring_bytes);
  std::vector<pid_t> pids(static_cast<std::size_t>(opts.shards), -1);
  std::fflush(stdout);
  std::fflush(stderr);
  for (std::int32_t k = 0; k < opts.shards; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      shm.request_abort();
      std::vector<bool> exited(static_cast<std::size_t>(opts.shards), true);
      for (std::int32_t j = 0; j < k; ++j) {
        exited[static_cast<std::size_t>(j)] = false;
      }
      fail_run(shm, opts, opts.shards, pids, &exited, "fork failed");
    }
    if (pid == 0) {
      const int rc =
          run_worker(*w.engine, shm, worker_options(opts, k, w.lp_checksum));
      // _exit: no atexit/static destructors in the forked image.
      ::_exit(rc);
    }
    pids[static_cast<std::size_t>(k)] = pid;
  }
  supervise(shm, opts, opts.shards, pids);
  return assemble(shm, *w.engine, opts.shards);
}

/// The single-process rung: sequential reference executor, resuming from
/// the per-shard checkpoint set when asked and possible.
ShardResult run_single(const ShardOptions& opts, const WorkloadFn& workload,
                       ShardWorkload&& built, std::int32_t shard_count,
                       bool try_restore) {
  ShardWorkload w = std::move(built);
  if (!w.engine) w = workload();
  bool recovered = false;
  if (try_restore && !opts.ckpt_dir.empty() && opts.ckpt_every > 0) {
    std::string error;
    recovered = ShardDriver::restore_from_shards(*w.engine, opts.ckpt_dir,
                                                 shard_count, &error);
    if (!recovered) {
      std::fprintf(stderr,
                   "massf shard: no usable shard checkpoint set (%s); "
                   "falling back to a fresh run\n",
                   error.c_str());
      // A failed restore may have half-mutated the engine: rebuild.
      w = workload();
    }
  }
  ShardResult result;
  result.stats = w.engine->run();
  result.shards = 1;
  result.recovered = recovered;
  if (w.lp_checksum) {
    for (LpId i = 0; i < w.engine->num_lps(); ++i) {
      result.checksum = result.checksum * 31 + w.lp_checksum(i);
    }
  }
  return result;
}

}  // namespace

ShardResult run_sharded(const ShardOptions& options, const WorkloadFn& workload,
                        obs::Registry* registry) {
  ShardWorkload built = workload();
  MASSF_ENFORCE(built.engine != nullptr && built.engine->num_lps() > 0,
                ErrorCategory::kConfig,
                "sharded run needs a workload with at least one LP");
  ShardOptions opts = options;
  MASSF_ENFORCE(opts.shards >= 1, ErrorCategory::kConfig,
                "--shards wants a positive worker count");
  const std::int32_t n = built.engine->num_lps();
  if (opts.shards > n) {
    warn(ErrorCategory::kConfig,
         "run_sharded: " + std::to_string(opts.shards) +
             " shards requested for " + std::to_string(n) +
             " LPs; clamped to " + std::to_string(n) +
             " (an LP-less worker would only forward null messages)");
    opts.shards = n;
  }
  if (opts.shards == 1) {
    ShardResult result = run_single(opts, workload, std::move(built),
                                    opts.shards, /*try_restore=*/false);
    publish_metrics(registry, result);
    return result;
  }
  if (!opts.fallback) {
    ShardResult result = attempt_fork(opts, built);
    publish_metrics(registry, result);
    return result;
  }

  ShardResult result;
  guard::GuardedRun ladder(guard::GuardedRun::Options{opts.max_retries},
                           registry);
  // threads=2 gives the ladder its sequential rung; the attempt fn maps
  // rung 0 -> sharded, rung 1 -> single-process fallback.
  const guard::GuardedRunReport report = ladder.run(
      /*threads=*/2,
      [&](const guard::AttemptPlan& plan) -> guard::AttemptOutcome {
        try {
          if (plan.rung == 0) {
            result = attempt_fork(opts, built);
          } else {
            result = run_single(opts, workload, ShardWorkload{}, opts.shards,
                                plan.restore);
            result.degraded_rung = plan.rung;
          }
          return {guard::AttemptStatus::kCompleted, ""};
        } catch (const EngineError& err) {
          return {guard::AttemptStatus::kFailed, err.what()};
        }
      });
  if (!report.completed) {
    MASSF_THROW(ErrorCategory::kProtocolStall,
                "sharded run failed after " +
                    std::to_string(report.attempts) +
                    " attempts: " + report.last_error);
  }
  result.attempts = report.attempts;
  publish_metrics(registry, result);
  return result;
}

ShardResult run_sharded_exec(const ShardOptions& options,
                             const std::string& worker_command,
                             const WorkloadFn& workload,
                             obs::Registry* registry) {
  ShardWorkload built = workload();
  MASSF_ENFORCE(built.engine != nullptr && built.engine->num_lps() > 0,
                ErrorCategory::kConfig,
                "sharded run needs a workload with at least one LP");
  ShardOptions opts = options;
  MASSF_ENFORCE(opts.shards >= 1, ErrorCategory::kConfig,
                "--shards wants a positive worker count");
  const std::int32_t n = built.engine->num_lps();
  if (opts.shards > n) {
    warn(ErrorCategory::kConfig,
         "run_sharded_exec: " + std::to_string(opts.shards) +
             " shards requested for " + std::to_string(n) +
             " LPs; clamped to " + std::to_string(n));
    opts.shards = n;
  }
  if (opts.shards == 1) {
    ShardResult result = run_single(opts, workload, std::move(built),
                                    opts.shards, /*try_restore=*/false);
    publish_metrics(registry, result);
    return result;
  }

  std::string shm_path = "/tmp/massf-shard-" + std::to_string(::getpid()) +
                         "-" + std::to_string(opts.shards) + ".shm";
  ShardShm shm = ShardShm::create_file(
      shm_path, static_cast<std::uint32_t>(opts.shards),
      static_cast<std::uint32_t>(n), opts.ring_bytes);

  // The campaign-runner idiom: one launcher thread per worker process,
  // each self-exec'ing the host binary with the worker flags appended.
  std::vector<std::thread> launchers;
  std::vector<int> rcs(static_cast<std::size_t>(opts.shards), -1);
  for (std::int32_t k = 0; k < opts.shards; ++k) {
    launchers.emplace_back([&, k] {
      const std::string cmd = worker_command + " --shard-worker=" +
                              std::to_string(k) + " --shard-shm=" + shm_path;
      rcs[static_cast<std::size_t>(k)] = std::system(cmd.c_str());
    });
  }
  // Workers report their pids through the control page; supervise() can't
  // waitpid (the launcher shell owns them), so poll pid liveness instead.
  std::vector<bool> exited(static_cast<std::size_t>(opts.shards), false);
  std::int32_t live = opts.shards;
  std::uint64_t last_progress = ~std::uint64_t{0};
  auto last_change = Clock::now();
  const auto fail_exec = [&](const std::string& reason) {
    dump_rings(shm, opts.ring_dump_path, reason);
    shm.request_abort();
    for (std::int32_t k = 0; k < opts.shards; ++k) {
      const pid_t pid = shm.slot(k).pid.load(std::memory_order_relaxed);
      if (!exited[static_cast<std::size_t>(k)] && pid > 0) {
        ::kill(pid, SIGKILL);
      }
    }
    for (auto& t : launchers) t.join();
    for (std::int32_t k = 0; k < opts.shards; ++k) {
      const ControlSlot& s = shm.slot(k);
      if (s.state.load(std::memory_order_acquire) ==
          static_cast<std::uint32_t>(WorkerState::kError)) {
        const auto cat = static_cast<ErrorCategory>(
            s.error_category.load(std::memory_order_relaxed));
        MASSF_THROW(cat, "shard worker " + std::to_string(k) + " failed: " +
                             std::string(s.error_message) + " (" + reason +
                             ")");
      }
    }
    MASSF_THROW(ErrorCategory::kProtocolStall, reason);
  };
  while (live > 0) {
    for (std::int32_t k = 0; k < opts.shards; ++k) {
      if (exited[static_cast<std::size_t>(k)]) continue;
      if (rcs[static_cast<std::size_t>(k)] < 0) continue;  // still running
      exited[static_cast<std::size_t>(k)] = true;
      --live;
      const bool clean =
          rcs[static_cast<std::size_t>(k)] == 0 &&
          shm.slot(k).state.load(std::memory_order_acquire) ==
              static_cast<std::uint32_t>(WorkerState::kDone);
      if (!clean) {
        fail_exec("shard worker " + std::to_string(k) +
                  " exited with status " +
                  std::to_string(rcs[static_cast<std::size_t>(k)]));
      }
    }
    if (live == 0) break;
    const std::uint64_t progress = progress_sample(shm, opts.shards);
    if (progress != last_progress) {
      last_progress = progress;
      last_change = Clock::now();
    } else if (std::chrono::duration<double>(Clock::now() - last_change)
                   .count() > opts.stall_deadline_s) {
      fail_exec("no cross-shard progress for " +
                std::to_string(opts.stall_deadline_s) + "s (stall deadline)");
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opts.poll_interval_s));
  }
  for (auto& t : launchers) t.join();
  ShardResult result = assemble(shm, *built.engine, opts.shards);
  publish_metrics(registry, result);
  return result;
}

int exec_worker_main(const std::string& shm_path, std::int32_t shard,
                     const ShardOptions& options, const WorkloadFn& workload) {
  try {
    ShardShm shm = ShardShm::attach_file(shm_path);
    ShardWorkload w = workload();
    return run_worker(*w.engine, shm,
                      worker_options(options, shard, w.lp_checksum));
  } catch (const std::exception& err) {
    std::fprintf(stderr, "massf shard worker %d: %s\n", shard, err.what());
    return 3;
  }
}

}  // namespace massf::shard
