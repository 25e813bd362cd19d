// Engine throughput baseline: the first entry of the repo's perf
// trajectory (BENCH_pdes.json).
//
// Runs the golden ring (pdes/golden_ring.hpp) — a ring of LPs exchanging
// cross-LP events at exactly the lookahead plus local self-chains inside
// each window — through the sequential and threaded executors and reports
// *real* events/sec, the window count, and the real synchronization
// overhead measured by the telemetry probe. Subsequent perf PRs diff this
// file's output; the schema ("massf.bench_pdes.v3") is documented in
// DESIGN.md and README.md.
//
// Usage: bench_pdes [--lps=32] [--chain=64] [--hops=2000] [--threads=N]
//                   [--sweep=1,2,4] [--repeats=3]
//                   [--out=BENCH_pdes.json] [--print-golden]
//
// --print-golden runs the sequential reference once and prints only the
// workload checksum — the value pinned by BENCH_pdes.json,
// pdes/golden_ring.hpp, and scripts/check_bench.py (regenerate it after an
// intentional workload change with tests/regen_golden.sh).
//
// --sweep runs the threaded executor at each listed thread count (in
// addition to the sequential reference and the --threads run) and records
// one entry per count, so a single invocation captures the scaling curve.
// Pass --sweep=none to skip it. Every run's checksum must agree with the
// sequential reference or the bench fails.
//
// Wait-time semantics: every entry reports `barrier_wait_s`, the *summed*
// thread-seconds the probe attributed to synchronization — channel stalls
// plus epoch parks (SyncStats in channel_sync.hpp); legitimately larger
// than wall_s, since it is a thread-seconds quantity — and
// `barrier_wait_mean_s`, the per-thread mean, which is the number to read
// against wall_s.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "guard/watchdog.hpp"
#include "obs/export.hpp"
#include "obs/probe.hpp"
#include "pdes/golden_ring.hpp"
#include "util/flags.hpp"

namespace {

using namespace massf;

struct Workload {
  std::int64_t lps = 32;
  std::int64_t chain = 64;
  std::int64_t hops = 2000;
};

/// The golden ring at the bench's shape with its true topology declared:
/// LP i only ever sends to its successor, at exactly the lookahead, so the
/// threaded executor synchronizes per edge instead of all-pairs.
GoldenRing build_ring(const Workload& w, const EngineOptions& o) {
  GoldenRing ring = build_golden_ring(o, w.lps, w.chain, w.hops);
  ChannelGraph graph;
  for (std::int64_t i = 0; i < w.lps; ++i) {
    graph.add(static_cast<LpId>(i), static_cast<LpId>((i + 1) % w.lps),
              o.lookahead);
  }
  ring.engine->set_channels(std::move(graph));
  return ring;
}

struct Measurement {
  RunStats stats;
  std::int32_t threads = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::uint64_t checksum = 0;
  /// Summed thread-seconds attributed to synchronization (a thread-seconds
  /// quantity: legitimately > wall_s on multi-thread runs).
  double barrier_wait_s = 0;
  /// Per-thread mean of barrier_wait_s — the like-with-like number to read
  /// against wall_s.
  double barrier_wait_mean_s = 0;
  double hook_s = 0;
  double process_s = 0;
  double merge_s = 0;
  std::uint64_t null_events = 0;        ///< threaded runs only
  std::uint64_t quiescence_epochs = 0;  ///< threaded runs only
  bool guard = false;                   ///< run under an armed watchdog
};

Measurement measure(const Workload& w, std::int32_t threads, int repeats,
                    bool guarded = false) {
  Measurement best;
  for (int rep = 0; rep < repeats; ++rep) {
    EngineOptions o = golden_ring_options();
    if (guarded) {
      // Supervised row (DESIGN.md section 5h): liveness telemetry on and
      // the watchdog armed, with a deadline the healthy run never hits —
      // the row measures what supervision costs, not what it does.
      o.guard.enabled = true;
      o.guard.stall_deadline_s = 300.0;
    }
    GoldenRing ring = build_ring(w, o);
    Engine& engine = *ring.engine;

    obs::WindowProbe probe;
    engine.set_probe(&probe);

    guard::Watchdog watchdog(engine, o.guard);
    if (guarded) watchdog.arm();
    const auto t0 = std::chrono::steady_clock::now();
    const RunStats stats =
        threads > 0 ? engine.run_threaded(threads) : engine.run();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    watchdog.disarm();

    Measurement m;
    m.stats = stats;
    m.threads = threads;
    m.guard = guarded;
    m.wall_s = wall_s;
    m.events_per_sec =
        wall_s > 0 ? static_cast<double>(stats.total_events) / wall_s : 0;
    m.checksum = ring.checksum();
    const obs::WindowProbe::Summary s = probe.summary();
    m.barrier_wait_s = s.barrier_wait_s;
    m.barrier_wait_mean_s =
        threads > 0 ? s.barrier_wait_s / threads : s.barrier_wait_s;
    m.hook_s = s.hook_s;
    m.process_s = s.process_s;
    m.merge_s = s.merge_s;
    m.null_events = engine.sync_stats().null_events;
    m.quiescence_epochs = engine.sync_stats().quiescence_epochs;
    if (rep == 0 || m.wall_s < best.wall_s) best = m;
  }
  return best;
}

std::string measurement_json(const Measurement& m, const char* indent) {
  using obs::format_double;
  const std::string in(indent);
  std::string out = "{\n";
  out += in + "  \"threads\": " + std::to_string(m.threads) + ",\n";
  if (m.guard) out += in + "  \"guard\": true,\n";
  out += in + "  \"events\": " + std::to_string(m.stats.total_events) + ",\n";
  out += in + "  \"windows\": " + std::to_string(m.stats.num_windows) + ",\n";
  out += in + "  \"wall_s\": " + format_double(m.wall_s) + ",\n";
  out +=
      in + "  \"events_per_sec\": " + format_double(m.events_per_sec) + ",\n";
  out += in + "  \"hook_s\": " + format_double(m.hook_s) + ",\n";
  out += in + "  \"process_s\": " + format_double(m.process_s) + ",\n";
  out +=
      in + "  \"barrier_wait_s\": " + format_double(m.barrier_wait_s) + ",\n";
  out += in + "  \"barrier_wait_mean_s\": " +
         format_double(m.barrier_wait_mean_s) + ",\n";
  out += in + "  \"merge_s\": " + format_double(m.merge_s) + ",\n";
  if (m.threads > 0) {
    out += in + "  \"null_events\": " + std::to_string(m.null_events) + ",\n";
    out += in + "  \"quiescence_epochs\": " +
           std::to_string(m.quiescence_epochs) + ",\n";
  }
  out += in + "  \"checksum\": " + std::to_string(m.checksum) + "\n";
  out += in + "}";
  return out;
}

std::string executor_json(const char* name, const Measurement& m) {
  return "  \"" + std::string(name) + "\": " + measurement_json(m, "  ");
}

std::vector<std::int32_t> parse_sweep(const std::string& spec) {
  std::vector<std::int32_t> counts;
  if (spec == "none" || spec.empty()) return counts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? spec.npos : comma - pos);
    const int v = std::atoi(tok.c_str());
    if (v >= 1) counts.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const auto at_least_one = [](std::int64_t v) {
    return v >= 1 ? "" : "must be >= 1";
  };
  FlagTable flags("bench_pdes",
                  "Engine throughput baseline on the golden ring; emits "
                  "massf.bench_pdes.v3 JSON.");
  flags.add_int("lps", 32, "golden ring size (logical processes)");
  flags.add_int("chain", 64, "self-chain length spawned by each hop");
  flags.add_int("hops", 2000, "hop events forwarded around the ring");
  flags.add_int("threads",
                std::max(2u, std::min(8u, std::thread::hardware_concurrency())),
                "threaded-executor worker count of the headline row",
                at_least_one);
  flags.add_int("repeats", 3, "runs per row; the fastest is kept",
                at_least_one);
  flags.add_string("out", "BENCH_pdes.json", "JSON report path");
  flags.add_string("sweep", "1,2,4",
                   "comma-separated thread counts to sweep, or none");
  flags.add_bool("print-golden", false,
                 "print the sequential workload checksum and exit");
  flags.parse_or_exit(argc, argv);

  Workload w;
  w.lps = flags.get_int("lps");
  w.chain = flags.get_int("chain");
  w.hops = flags.get_int("hops");
  const auto threads = static_cast<std::int32_t>(flags.get_int("threads"));
  const auto repeats = static_cast<int>(flags.get_int("repeats"));
  const std::string out_path = flags.get_string("out");
  const std::vector<std::int32_t> sweep =
      parse_sweep(flags.get_string("sweep"));

  if (flags.get_bool("print-golden")) {
    const Measurement m = measure(w, /*threads=*/0, /*repeats=*/1);
    std::printf("%llu\n", static_cast<unsigned long long>(m.checksum));
    return 0;
  }

  std::fprintf(stderr,
               "[bench_pdes] lps=%lld chain=%lld hops=%lld threads=%d "
               "repeats=%d\n",
               static_cast<long long>(w.lps), static_cast<long long>(w.chain),
               static_cast<long long>(w.hops), threads, repeats);

  const Measurement seq = measure(w, /*threads=*/0, repeats);
  std::fprintf(stderr, "[bench_pdes] sequential: %.0f events/s (%llu events, %llu windows)\n",
               seq.events_per_sec,
               static_cast<unsigned long long>(seq.stats.total_events),
               static_cast<unsigned long long>(seq.stats.num_windows));

  const auto agrees = [&seq](const Measurement& m) {
    return seq.checksum == m.checksum &&
           seq.stats.total_events == m.stats.total_events;
  };

  // The supervision-cost row: same sequential reference with telemetry on
  // and the watchdog armed. check_bench.py gates the overhead.
  const Measurement seq_guard =
      measure(w, /*threads=*/0, repeats, /*guarded=*/true);
  std::fprintf(stderr,
               "[bench_pdes] sequential+guard: %.0f events/s "
               "(%.1f%% overhead vs unguarded)\n",
               seq_guard.events_per_sec,
               seq.events_per_sec > 0
                   ? (1.0 - seq_guard.events_per_sec / seq.events_per_sec) *
                         100.0
                   : 0.0);
  if (!agrees(seq_guard)) {
    std::fprintf(stderr,
                 "[bench_pdes] ERROR: guarded run perturbed the trace "
                 "(checksum %llu vs %llu)\n",
                 static_cast<unsigned long long>(seq.checksum),
                 static_cast<unsigned long long>(seq_guard.checksum));
    return 1;
  }

  const auto measure_threaded = [&](std::int32_t t, Measurement* out) {
    *out = measure(w, t, repeats);
    std::fprintf(stderr, "[bench_pdes] threaded(%d): %.0f events/s\n", t,
                 out->events_per_sec);
    if (agrees(*out)) return true;
    std::fprintf(stderr,
                 "[bench_pdes] ERROR: executors disagree at %d threads "
                 "(checksum %llu vs %llu)\n",
                 t, static_cast<unsigned long long>(seq.checksum),
                 static_cast<unsigned long long>(out->checksum));
    return false;
  };

  std::vector<Measurement> sweep_runs;
  Measurement thr;
  bool have_thr = false;
  for (const std::int32_t t : sweep) {
    Measurement m;
    if (!measure_threaded(t, &m)) return 1;
    sweep_runs.push_back(m);
    if (t == threads) {
      thr = m;
      have_thr = true;
    }
  }
  if (!have_thr && !measure_threaded(threads, &thr)) return 1;

  const double speedup = thr.events_per_sec > 0 && seq.events_per_sec > 0
                             ? thr.events_per_sec / seq.events_per_sec
                             : 0;

  using obs::format_double;
  std::string json = "{\n  \"schema\": \"massf.bench_pdes.v3\",\n";
  json += "  \"config\": {\"lps\": " + std::to_string(w.lps) +
          ", \"chain\": " + std::to_string(w.chain) +
          ", \"hops\": " + std::to_string(w.hops) +
          ", \"lookahead_ms\": 1, \"repeats\": " + std::to_string(repeats) +
          ", \"host_cpus\": " +
          std::to_string(std::thread::hardware_concurrency()) + "},\n";
  json += executor_json("sequential", seq) + ",\n";
  json += executor_json("sequential_guard", seq_guard) + ",\n";
  json += executor_json("threaded", thr) + ",\n";
  json += "  \"sweep\": [";
  for (std::size_t i = 0; i < sweep_runs.size(); ++i) {
    json += i == 0 ? "\n    " : ",\n    ";
    json += measurement_json(sweep_runs[i], "    ");
  }
  json += sweep_runs.empty() ? "],\n" : "\n  ],\n";
  json += "  \"speedup\": " + format_double(speedup) + "\n}\n";

  if (!obs::write_file(out_path, json)) {
    std::fprintf(stderr, "[bench_pdes] failed to write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_pdes] wrote %s\n", out_path.c_str());
  std::fputs(json.c_str(), stdout);
  return 0;
}
