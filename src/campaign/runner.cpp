#include "campaign/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "campaign/golden.hpp"
#include "fault/injector.hpp"
#include "guard/guarded_run.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "util/error.hpp"

namespace massf {
namespace {

constexpr std::string_view kTimingExcludes[] = {
    "ckpt.write_ms",
    "guard.",
    "pdes.sched.arena_slots",
    "pdes.sched.heap_peak",
    "pdes.shard.control_wait_s",
    "pdes.shard.control_waits",
    "pdes.shard.ring_stalls",
    "pdes.shard.ring_wait_s",
    "pdes.sync.channel_wait_s",
    "pdes.sync.epoch_wait_s",
    "pdes.sync.null_events",
    "pdes.sync.quiescence_epochs",
    "pdes.sync.stalls",
};

double elapsed_s(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string sanitize_error(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\t' || c == '\r') c = ' ';
  }
  return s;
}

// The massf_cli run loop for one mapping, minus the printing: supervised
// (GuardedRun + checkpoint resume) when the guard is armed with the
// recover policy, plain otherwise.
void execute_scenario(const CampaignRun& run, obs::Registry* registry,
                      RunRecord* rec) {
  const ScenarioSpec& s = run.spec;
  ScenarioOptions opts = s.options;
  opts.registry = registry;
  Scenario scenario(opts);

  std::unique_ptr<FaultInjector> injector;
  if (!s.faults.empty()) {
    injector = std::make_unique<FaultInjector>(scenario.network(),
                                               scenario.forwarding_mut());
    const FaultSchedule* sched = &s.faults;
    FaultInjector* inj = injector.get();
    scenario.set_pre_run([inj, sched](Engine& engine, NetSim& sim) {
      inj->arm(engine, sim, *sched);
    });
  }

  const MappingKind kind = s.mappings.front();
  ExperimentResult r;
  if (opts.guard.enabled && opts.guard.on_stall == guard::OnStall::kCancel) {
    bool have_result = false;
    guard::GuardedRun::Options gro;
    gro.max_retries = s.guard_retries;
    guard::GuardedRun runner(gro, registry);
    const auto report = runner.run(
        opts.executor_threads,
        [&](const guard::AttemptPlan& plan) -> guard::AttemptOutcome {
          scenario.set_executor_threads(plan.threads);
          CkptOptions attempt_ckpt = opts.ckpt;
          if (plan.restore && !attempt_ckpt.path.empty() &&
              file_exists(attempt_ckpt.path)) {
            attempt_ckpt.restore_path = attempt_ckpt.path;
          }
          scenario.set_ckpt(attempt_ckpt);
          try {
            r = scenario.run(kind);
          } catch (const EngineError& e) {
            if (e.category() == ErrorCategory::kInternal) throw;
            return {guard::AttemptStatus::kFailed, e.what()};
          }
          if (scenario.last_run_cancelled()) {
            return {guard::AttemptStatus::kStalled,
                    "watchdog cancelled the run"};
          }
          have_result = true;
          return {guard::AttemptStatus::kCompleted, ""};
        });
    if (!have_result) {
      rec->error = "guarded run failed permanently: " + report.last_error;
      return;
    }
  } else {
    r = scenario.run(kind);
  }

  rec->ok = true;
  rec->mapping = mapping_kind_name(kind);
  rec->events = r.metrics.total_events;
  rec->windows = r.metrics.num_windows;
  rec->modeled_time_s = r.metrics.simulation_time_s;
  rec->load_imbalance = r.metrics.load_imbalance;
  rec->parallel_efficiency = r.metrics.parallel_efficiency;
  rec->mll_ms = to_milliseconds(r.mapping.achieved_mll);
  rec->faults_injected =
      injector != nullptr ? injector->faults_injected() : 0;
}

std::string kv_line(const std::string& key, const std::string& value) {
  return key + "\t" + value + "\n";
}

}  // namespace

std::span<const std::string_view> timing_metric_excludes() {
  return kTimingExcludes;
}

RunRecord execute_run(const CampaignRun& run, const std::string& run_dir) {
  const auto start = std::chrono::steady_clock::now();
  RunRecord rec;
  rec.id = run.id;
  rec.axis = run.axis;
  rec.golden = run.golden;

  obs::Registry registry;
  try {
    if (run.golden) {
      rec.checksum = golden_ring_checksum(run.spec.options.executor_threads,
                                          &rec.events, &rec.windows,
                                          run.spec.options.executor_shards);
      rec.has_checksum = true;
      rec.ok = true;
      registry.counter("pdes.events").inc(rec.events);
      registry.counter("pdes.windows").inc(rec.windows);
      registry.counter("golden.checksum").inc(rec.checksum);
    } else {
      execute_scenario(run, &registry, &rec);
    }
  } catch (const std::exception& e) {
    rec.ok = false;
    rec.error = e.what();
  }
  rec.wall_s = elapsed_s(start);

  if (!run_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(run_dir, ec);
    obs::write_file(run_dir + "/metrics.json", obs::to_json(registry));
    obs::write_file(run_dir + "/metrics.canonical.json",
                    obs::to_json_excluding(registry,
                                           timing_metric_excludes()));
    obs::write_file(run_dir + "/result.kv", run_record_to_kv(rec));
  }
  return rec;
}

std::string run_dir_name(std::size_t index, const CampaignRun& run) {
  char prefix[8];
  std::snprintf(prefix, sizeof prefix, "%03zu-", index);
  std::string name = prefix;
  for (const char c : run.id) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    name += safe ? c : '_';
  }
  return name;
}

std::string run_record_to_kv(const RunRecord& rec) {
  std::string out;
  out += kv_line("id", rec.id);
  for (const CampaignAxisValue& a : rec.axis) {
    out += kv_line("axis." + a.axis, a.label);
  }
  out += kv_line("golden", rec.golden ? "1" : "0");
  out += kv_line("ok", rec.ok ? "1" : "0");
  if (!rec.error.empty()) out += kv_line("error", sanitize_error(rec.error));
  if (!rec.mapping.empty()) out += kv_line("mapping", rec.mapping);
  out += kv_line("events", std::to_string(rec.events));
  out += kv_line("windows", std::to_string(rec.windows));
  out += kv_line("modeled_time_s", obs::format_double(rec.modeled_time_s));
  out += kv_line("load_imbalance", obs::format_double(rec.load_imbalance));
  out += kv_line("parallel_efficiency",
                 obs::format_double(rec.parallel_efficiency));
  out += kv_line("mll_ms", obs::format_double(rec.mll_ms));
  out += kv_line("faults_injected", std::to_string(rec.faults_injected));
  if (rec.has_checksum) {
    out += kv_line("checksum", std::to_string(rec.checksum));
  }
  out += kv_line("wall_s", obs::format_double(rec.wall_s));
  return out;
}

bool run_record_from_kv(const std::string& text, RunRecord* rec,
                        std::string* error) {
  std::istringstream in(text);
  std::string line;
  bool saw_ok = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      if (error) *error = "malformed result.kv line: " + line;
      return false;
    }
    const std::string key = line.substr(0, tab);
    const std::string value = line.substr(tab + 1);
    if (key == "id") {
      rec->id = value;
    } else if (key.rfind("axis.", 0) == 0) {
      rec->axis.push_back({key.substr(5), value});
    } else if (key == "golden") {
      rec->golden = value == "1";
    } else if (key == "ok") {
      rec->ok = value == "1";
      saw_ok = true;
    } else if (key == "error") {
      rec->error = value;
    } else if (key == "mapping") {
      rec->mapping = value;
    } else if (key == "events") {
      rec->events = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "windows") {
      rec->windows = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "modeled_time_s") {
      rec->modeled_time_s = std::strtod(value.c_str(), nullptr);
    } else if (key == "load_imbalance") {
      rec->load_imbalance = std::strtod(value.c_str(), nullptr);
    } else if (key == "parallel_efficiency") {
      rec->parallel_efficiency = std::strtod(value.c_str(), nullptr);
    } else if (key == "mll_ms") {
      rec->mll_ms = std::strtod(value.c_str(), nullptr);
    } else if (key == "faults_injected") {
      rec->faults_injected = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "checksum") {
      rec->checksum = std::strtoull(value.c_str(), nullptr, 10);
      rec->has_checksum = true;
    } else if (key == "wall_s") {
      rec->wall_s = std::strtod(value.c_str(), nullptr);
    }
    // Unknown keys are skipped: a newer worker may report more columns.
  }
  if (!saw_ok) {
    if (error) *error = "result.kv has no `ok` line";
    return false;
  }
  return true;
}

CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignExecOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  CampaignOutcome outcome;
  outcome.runs.resize(spec.runs.size());
  const std::int32_t workers = std::max<std::int32_t>(
      1, std::min<std::int32_t>(options.workers,
                                static_cast<std::int32_t>(spec.runs.size())));
  outcome.workers = workers;

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= spec.runs.size()) return;
      const CampaignRun& run = spec.runs[i];
      const std::string run_dir =
          options.out_dir.empty()
              ? std::string()
              : options.out_dir + "/runs/" + run_dir_name(i, run);
      if (options.self_exe.empty()) {
        outcome.runs[i] = execute_run(run, run_dir);
        continue;
      }
      // Subprocess mode: the worker re-invokes the campaign binary for
      // one run index; the child writes the run dir (including
      // result.kv) and this side only collects.
      std::error_code ec;
      std::filesystem::create_directories(run_dir, ec);
      const std::string cmd = "'" + options.self_exe + "' --campaign='" +
                              options.campaign_path + "' --worker-run=" +
                              std::to_string(i) + " --out='" +
                              options.out_dir + "' > '" + run_dir +
                              "/log.txt' 2>&1";
      const int rc = std::system(cmd.c_str());
      RunRecord rec;
      std::ifstream in(run_dir + "/result.kv");
      std::ostringstream buf;
      std::string err;
      if (in) buf << in.rdbuf();
      if (!in || !run_record_from_kv(buf.str(), &rec, &err)) {
        rec = RunRecord{};
        rec.id = run.id;
        rec.axis = run.axis;
        rec.golden = run.golden;
        rec.ok = false;
        rec.error = "worker exited " + std::to_string(rc) +
                    (err.empty() ? " without result.kv" : ": " + err);
      }
      outcome.runs[i] = rec;
    }
  };

  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (std::int32_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  outcome.wall_s = elapsed_s(start);
  return outcome;
}

}  // namespace massf
