// The campaign runner: expands a campaign file (base scenario x sweep
// axes) and executes every run across parallel workers.
//
//   ./massf_campaign --campaign=nightly.dml --out=out/ [--workers=4]
//   ./massf_campaign --campaign=nightly.dml --dry-run     # just the list
//
// Runs execute in worker subprocesses (each re-invokes this binary with
// --worker-run=K, so one crashing run cannot take down the campaign). At
// any worker count the per-run metrics and the roll-up are bit-identical
// apart from the "timing" section, because every run is a pure function
// of its resolved spec.
//
// Artifacts under --out:
//   campaign.json            massf.campaign.v1 roll-up (report.hpp)
//   runs/<NNN>-<id>/         per-run metrics.json, metrics.canonical.json,
//                            result.kv, log.txt (subprocess mode)
//
// Exit status: 0 when every run completed, 1 when any failed (the failed
// list is in the roll-up and the table) or the campaign file is invalid
// (a line-numbered error, as massf_cli reports scenario files), 2 on usage
// errors.
#include <unistd.h>

#include <cstdio>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "obs/export.hpp"
#include "util/flags.hpp"

namespace {

// The binary to re-invoke for worker subprocesses. /proc/self/exe is
// exact on Linux; argv[0] is the fallback (fine when launched by path).
std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace massf;

  FlagTable flags("massf_campaign",
                  "Expands a campaign (base scenario x sweep axes) and "
                  "executes every run.");
  flags.add_string("campaign", "", "campaign DML file (required)");
  flags.add_string("out", "",
                   "output directory: campaign.json roll-up + per-run "
                   "metrics (required unless --dry-run)");
  flags.add_int("workers", 0,
                "parallel workers (0 = the campaign file's setting)",
                [](std::int64_t v) {
                  return v >= 0 ? "" : "must be >= 0";
                });
  flags.add_bool("dry-run", false,
                 "print the expanded run list and exit");
  flags.add_int("worker-run", -1,
                "internal: execute one expanded run by index and exit");
  flags.parse_or_exit(argc, argv);

  if (!flags.set("campaign")) {
    std::fprintf(stderr, "missing --campaign=<file>\n");
    return 2;
  }
  const std::string campaign_path = flags.get_string("campaign");
  std::string error;
  const auto spec = load_campaign_file(campaign_path, &error);
  if (!spec) {
    std::fprintf(stderr, "%s: %s\n", campaign_path.c_str(), error.c_str());
    return 1;
  }

  const std::int64_t worker_run = flags.get_int("worker-run");
  if (worker_run >= 0) {
    if (worker_run >= static_cast<std::int64_t>(spec->runs.size())) {
      std::fprintf(stderr, "--worker-run=%lld out of range (%zu runs)\n",
                   static_cast<long long>(worker_run), spec->runs.size());
      return 2;
    }
    const std::size_t i = static_cast<std::size_t>(worker_run);
    const std::string out = flags.get_string("out");
    const std::string run_dir =
        out.empty() ? std::string()
                    : out + "/runs/" + run_dir_name(i, spec->runs[i]);
    const RunRecord rec = execute_run(spec->runs[i], run_dir);
    if (!rec.ok) {
      std::fprintf(stderr, "run %s failed: %s\n", rec.id.c_str(),
                   rec.error.c_str());
    }
    return rec.ok ? 0 : 3;
  }

  if (flags.get_bool("dry-run")) {
    std::printf("campaign %s: %zu runs\n",
                spec->name.empty() ? "(unnamed)" : spec->name.c_str(),
                spec->runs.size());
    for (std::size_t i = 0; i < spec->runs.size(); ++i) {
      std::printf("  %s  %s\n", run_dir_name(i, spec->runs[i]).c_str(),
                  spec->runs[i].id.c_str());
    }
    return 0;
  }

  if (!flags.set("out")) {
    std::fprintf(stderr, "missing --out=<dir> (or --dry-run)\n");
    return 2;
  }

  CampaignExecOptions eo;
  eo.out_dir = flags.get_string("out");
  eo.workers = flags.get_int("workers") > 0
                   ? static_cast<std::int32_t>(flags.get_int("workers"))
                   : spec->workers;
  eo.self_exe = self_exe_path(argv[0]);
  eo.campaign_path = campaign_path;

  const CampaignOutcome outcome = run_campaign(*spec, eo);
  obs::write_file(eo.out_dir + "/campaign.json",
                  campaign_to_json(*spec, outcome));
  std::fputs(campaign_table(*spec, outcome).c_str(), stdout);

  for (const RunRecord& r : outcome.runs) {
    if (!r.ok) return 1;
  }
  return 0;
}
