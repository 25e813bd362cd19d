// Multi-process executor launcher (DESIGN.md section 5j).
//
// Runs the pinned calibration ring (the bench_pdes / campaign-golden
// workload) across N worker processes and checks the executor-equality
// contract: the sharded run must reproduce the sequential golden checksum
// bit-identically. Two launch modes:
//
//   --mode=fork   (default) fork one worker per shard over an anonymous
//                 shared mapping; supervision rides the guard subsystem —
//                 watchdog per worker, structured EngineError propagation
//                 from the control page, degradation ladder down to the
//                 single-process reference executor (disable with
//                 --fallback=0).
//   --mode=exec   the campaign-runner idiom: the launcher re-invokes
//                 itself per shard with `--shard-worker=K --shard-shm=P`
//                 appended, workers attach the file-backed segment by
//                 path. On failure the launcher falls back to a
//                 single-process run (unless --fallback=0).
//
// With --ckpt-dir/--ckpt-every the workers write per-shard checkpoints
// (shard-<k>.ckpt) every that many windows; the fallback rung restores
// from the set (ShardDriver::restore_from_shards). The --kill-* flags
// inject a worker SIGKILL for supervision/recovery drills; pair them with
// --ring-dump to capture the control page + ring cursors on failure.
#include <cstdio>
#include <string>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "pdes/golden_ring.hpp"
#include "shard/supervisor.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"

namespace {

using namespace massf;

struct RingSpec {
  std::int64_t lps = 32;
  std::int64_t chain = 64;
  std::int64_t hops = 2000;
};

shard::ShardWorkload build_ring(const RingSpec& spec) {
  GoldenRing ring = build_golden_ring(golden_ring_options(), spec.lps,
                                      spec.chain, spec.hops);
  return {std::move(ring.engine), std::move(ring.lp_checksum)};
}

}  // namespace

int main(int argc, char** argv) {
  FlagTable flags("massf_shard",
                  "Runs the calibration ring across worker processes and "
                  "checks sharded == sequential bit-equality.");
  flags.add_int("shards", 2, "worker processes");
  flags.add_string("mode", "fork", "fork | exec (self-exec workers)");
  flags.add_int("lps", 32, "ring LPs");
  flags.add_int("chain", 64, "same-window self-chain length per hop");
  flags.add_int("hops", 2000, "cross-LP hops seeded per LP");
  flags.add_int("ring-bytes", 1 << 16, "per-directed-pair ring capacity");
  flags.add_double("stall-deadline", 30.0,
                   "seconds without progress before the run is killed");
  flags.add_string("ckpt-dir", "", "per-shard checkpoint directory (\"\" = off)");
  flags.add_int("ckpt-every", 0, "checkpoint every N windows (0 = off)");
  flags.add_string("ring-dump", "",
                   "write control page + ring cursors here on failure");
  flags.add_bool("fallback", true,
                 "degrade to the single-process executor on failure");
  flags.add_int("retries", 1, "same-configuration retries before degrading");
  flags.add_bool("expect-golden", true,
                 "fail unless the checksum matches the pinned golden value "
                 "(only meaningful at the default workload shape)");
  flags.add_string("out", "", "write run metrics JSON here (\"\" = stderr only)");
  flags.add_int("kill-shard", -1, "chaos: worker to SIGKILL (-1 = off)");
  flags.add_int("kill-after-windows", 0, "chaos: SIGKILL after N windows");
  flags.add_bool("kill-in-send", false,
                 "chaos: SIGKILL one frame into a cross-shard batch");
  flags.add_int("shard-worker", -1, "internal: exec-mode worker index");
  flags.add_string("shard-shm", "", "internal: exec-mode segment path");
  flags.parse_or_exit(argc, argv);

  RingSpec spec;
  spec.lps = flags.get_int("lps");
  spec.chain = flags.get_int("chain");
  spec.hops = flags.get_int("hops");

  shard::ShardOptions opts;
  opts.shards = static_cast<std::int32_t>(flags.get_int("shards"));
  opts.ring_bytes = static_cast<std::uint64_t>(flags.get_int("ring-bytes"));
  opts.stall_deadline_s = flags.get_double("stall-deadline");
  opts.ckpt_dir = flags.get_string("ckpt-dir");
  opts.ckpt_every = static_cast<std::uint64_t>(flags.get_int("ckpt-every"));
  opts.ring_dump_path = flags.get_string("ring-dump");
  opts.fallback = flags.get_bool("fallback");
  opts.max_retries = static_cast<int>(flags.get_int("retries"));
  opts.kill_shard = static_cast<std::int32_t>(flags.get_int("kill-shard"));
  opts.kill_after_windows =
      static_cast<std::uint64_t>(flags.get_int("kill-after-windows"));
  opts.kill_in_send = flags.get_bool("kill-in-send");

  const auto workload = [&spec] { return build_ring(spec); };

  // Exec-mode worker role: attach the segment and run our shard.
  const auto worker = static_cast<std::int32_t>(flags.get_int("shard-worker"));
  if (worker >= 0) {
    return shard::exec_worker_main(flags.get_string("shard-shm"), worker,
                                   opts, workload);
  }

  const std::string mode = flags.get_string("mode");
  obs::Registry registry;
  shard::ShardResult result;
  try {
    if (mode == "fork") {
      result = shard::run_sharded(opts, workload, &registry);
    } else if (mode == "exec") {
      // The worker command re-invokes this binary with the flags that
      // shape the workload and the worker-side options; run_sharded_exec
      // appends --shard-worker=K --shard-shm=PATH per shard.
      std::string cmd = std::string(argv[0]);
      cmd += " --lps=" + std::to_string(spec.lps);
      cmd += " --chain=" + std::to_string(spec.chain);
      cmd += " --hops=" + std::to_string(spec.hops);
      if (!opts.ckpt_dir.empty()) cmd += " --ckpt-dir=" + opts.ckpt_dir;
      if (opts.ckpt_every > 0) {
        cmd += " --ckpt-every=" + std::to_string(opts.ckpt_every);
      }
      if (opts.kill_shard >= 0) {
        cmd += " --kill-shard=" + std::to_string(opts.kill_shard);
        cmd += " --kill-after-windows=" +
               std::to_string(opts.kill_after_windows);
        if (opts.kill_in_send) cmd += " --kill-in-send=1";
      }
      try {
        result = shard::run_sharded_exec(opts, cmd, workload, &registry);
      } catch (const EngineError& e) {
        if (!opts.fallback) throw;
        std::fprintf(stderr,
                     "massf_shard: exec-mode run failed (%s); degrading to "
                     "the single-process executor\n",
                     e.what());
        shard::ShardOptions single = opts;
        single.shards = 1;
        result = shard::run_sharded(single, workload, &registry);
        result.degraded_rung = 1;
      }
    } else {
      std::fprintf(stderr, "massf_shard: --mode must be fork or exec\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "massf_shard: run failed: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr,
               "massf_shard: %s shards=%d events=%llu windows=%llu "
               "checksum=%llu attempts=%d rung=%d%s\n",
               mode.c_str(), result.shards,
               static_cast<unsigned long long>(result.stats.total_events),
               static_cast<unsigned long long>(result.stats.num_windows),
               static_cast<unsigned long long>(result.checksum),
               result.attempts, result.degraded_rung,
               result.recovered ? " (recovered from shard checkpoints)" : "");

  const std::string out = flags.get_string("out");
  if (!out.empty() && !obs::write_file(out, obs::to_json(registry))) {
    std::fprintf(stderr, "massf_shard: failed to write %s\n", out.c_str());
    return 1;
  }

  if (flags.get_bool("expect-golden")) {
    if (result.checksum != kGoldenRingChecksum ||
        result.stats.total_events != kGoldenRingEvents ||
        result.stats.num_windows != kGoldenRingWindows) {
      std::fprintf(stderr,
                   "massf_shard: GOLDEN MISMATCH: checksum %llu (want %llu) "
                   "events %llu (want %llu) windows %llu (want %llu)\n",
                   static_cast<unsigned long long>(result.checksum),
                   static_cast<unsigned long long>(kGoldenRingChecksum),
                   static_cast<unsigned long long>(result.stats.total_events),
                   static_cast<unsigned long long>(kGoldenRingEvents),
                   static_cast<unsigned long long>(result.stats.num_windows),
                   static_cast<unsigned long long>(kGoldenRingWindows));
      return 1;
    }
    std::fprintf(stderr, "massf_shard: golden checksum OK (%llu)\n",
                 static_cast<unsigned long long>(kGoldenRingChecksum));
  }
  return 0;
}
