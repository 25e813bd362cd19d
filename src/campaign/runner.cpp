#include "campaign/runner.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"

extern char** environ;

namespace massf {
namespace {

constexpr std::string_view kTimingExcludes[] = {
    "guard.",
    "pdes.probe.barrier_wait_s",
    "pdes.probe.hook_s",
    "pdes.probe.merge_s",
    "pdes.probe.process_s",
    "pdes.sched.arena_slots",
    "pdes.sched.heap_peak",
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

std::string sanitize_error(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\t' || c == '\r') c = ' ';
  }
  return s;
}

// Builds the run's Scenario (metrics into `registry`) and executes its
// first mapping; the campaign sweeps mappings as an axis.
void execute_scenario(const CampaignRun& run, obs::Registry* registry,
                      RunRecord* rec) {
  const ScenarioSpec& s = run.spec;
  ScenarioOptions opts = s.options;
  opts.registry = registry;
  Scenario scenario(opts);

  const MappingKind kind = s.mappings.front();
  const ExperimentResult r = run_mapping(scenario, kind);
  rec->ok = true;
  rec->mapping = mapping_kind_name(kind);
  rec->events = r.metrics.total_events;
  rec->windows = r.metrics.num_windows;
  rec->modeled_time_s = r.metrics.simulation_time_s;
  rec->load_imbalance = r.metrics.load_imbalance;
  rec->parallel_efficiency = r.metrics.parallel_efficiency;
  rec->mll_ms = to_milliseconds(r.mapping.achieved_mll);
  rec->faults_injected = r.faults_injected;
}

std::string kv_line(const std::string& key, const std::string& value) {
  return key + "\t" + value + "\n";
}

// Starts `self_exe --campaign=<path> --worker-run=<index> --out=<dir>`
// with stdout and stderr on <run_dir>/log.txt, waits for it, and returns
// how it ended: "exited N", "killed by signal N" or "failed to start: ...".
// The argv goes to the child as is, so no path needs quoting.
std::string run_worker(const CampaignExecOptions& options, std::size_t index,
                       const std::string& run_dir) {
  std::vector<std::string> args = {
      options.self_exe, "--campaign=" + options.campaign_path,
      "--worker-run=" + std::to_string(index), "--out=" + options.out_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const std::string log = run_dir + "/log.txt";
  posix_spawn_file_actions_t actions;
  int rc = posix_spawn_file_actions_init(&actions);
  if (rc != 0) return "failed to start: " + std::string(std::strerror(rc));
  rc = posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (rc == 0) {
    rc = posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                          STDERR_FILENO);
  }
  pid_t pid = 0;
  if (rc == 0) {
    rc = posix_spawn(&pid, options.self_exe.c_str(), &actions, nullptr,
                     argv.data(), environ);
  }
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return "failed to start: " + std::string(std::strerror(rc));

  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0) {
    if (errno != EINTR) return "lost: " + std::string(std::strerror(errno));
  }
  if (WIFSIGNALED(wstatus)) {
    return "killed by signal " + std::to_string(WTERMSIG(wstatus));
  }
  return "exited " + std::to_string(WEXITSTATUS(wstatus));
}

}  // namespace

ExperimentResult run_mapping(Scenario& scenario, MappingKind kind) {
  ExperimentResult result = scenario.run(kind);
  if (!scenario.last_run_cancelled()) return result;
  std::fprintf(stderr,
               "massf guard: %s run cancelled after a stall; re-running it "
               "from t = 0 on the sequential executor\n",
               mapping_kind_name(kind));
  std::fflush(stderr);
  struct RestoreThreads {
    Scenario& scenario;
    const std::int32_t threads;
    ~RestoreThreads() { scenario.set_executor_threads(threads); }
  } restore{scenario, scenario.options().executor_threads};
  scenario.set_executor_threads(0);
  return scenario.run(kind);
}

std::span<const std::string_view> timing_metric_excludes() {
  return kTimingExcludes;
}

RunRecord execute_run(const CampaignRun& run, const std::string& run_dir) {
  const auto start = std::chrono::steady_clock::now();
  RunRecord rec;
  rec.id = run.id;
  rec.axis = run.axis;

  obs::Registry registry;
  try {
    execute_scenario(run, &registry, &rec);
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
      const std::string status = run_worker(options, i, run_dir);
      RunRecord rec;
      std::ifstream in(run_dir + "/result.kv");
      std::ostringstream buf;
      std::string err;
      if (in) buf << in.rdbuf();
      if (!in || !run_record_from_kv(buf.str(), &rec, &err)) {
        rec = RunRecord{};
        rec.id = run.id;
        rec.axis = run.axis;
        rec.ok = false;
        rec.error = "worker " + status +
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
