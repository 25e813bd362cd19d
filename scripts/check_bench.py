#!/usr/bin/env python3
"""Regression gate for bench JSON reports.

Schemas understood (each mode checks the report's "schema" field):

  massf.bench_pdes.v3 — compare a fresh `bench_pdes --out` run against the
  committed BENCH_pdes.json baseline. Checks:
    * Determinism (exact): every executor entry must report the pinned
      golden checksum plus the exact event and window counts. Any drift
      means the event-ordering contract changed — see tests/regen_golden.sh
      before re-pinning.
    * Throughput (tolerant): events/s may regress by at most --tolerance
      (fractional, default 0.5 — CI runners are noisy and slower than the
      machine that produced the baseline; the gate exists to catch
      order-of-magnitude cliffs, not single-digit noise). Entries are
      matched by (threads, guard). A row whose thread count exceeds the
      current report's config.host_cpus is skipped with a note: its
      workers share cores, so its events/s measures the OS scheduler, not
      the executor.
    * Wait accounting (exact-ish): barrier_wait_s is a summed thread-
      seconds quantity; barrier_wait_mean_s must equal it divided by the
      thread count, so the two fields cannot drift apart and a reader
      comparing waits against wall_s compares like with like.
    * Supervision overhead (self-contained): when the current report
      carries a "sequential_guard" entry (armed liveness watchdog, DESIGN.md
      section 5h), its events/s must stay within --max-guard-overhead
      (default 0.10) of the unguarded sequential row from the same run.
      Guarded entries carry "guard": true and are matched against their own
      baselines in the throughput check, never against unguarded rows.

  massf.campaign.v1 — gate on a `massf_campaign` roll-up, selected with
  --campaign PATH (no baseline file needed):
    * no failed runs (the "failed" list must be empty and every run ok);
    * every golden calibration row must report --golden-checksum (default:
      the pinned PDES-ring value), wiring the engine-determinism contract
      into campaign artifacts;
    * with --compare OTHER.json, the two roll-ups must be identical once
      their "timing" sections are dropped — the 1-vs-N-workers
      reproducibility check the nightly job runs.

The hybrid link model's fidelity and scale are gated by the tier-1 test
ScenarioCorpus.HybridFidelityCampaignMeetsBounds, which runs
scenarios/campaigns/hybrid-fidelity.dml and asserts its bounds itself.

Usage:
  bench_pdes --out current.json   # NOT the default --out, which would
                                  # overwrite the committed baseline
  scripts/check_bench.py [--baseline BENCH_pdes.json] [--current current.json]
                         [--tolerance 0.5] [--allow-missing-baseline]

Exit status: 0 on pass, 1 on any failed check, 2 on missing/malformed input
(one-line actionable message on stderr, no traceback).
"""

import argparse
import json
import os
import sys


def die(message):
    """Exit 2 with a one-line actionable message (never a traceback)."""
    print(f"check_bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path, hint):
    if not os.path.exists(path):
        die(f"{path} not found — {hint}")
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        die(f"{path} is not valid JSON ({e}) — regenerate it")
    except OSError as e:
        die(f"cannot read {path}: {e}")


def get(doc, path, filename):
    """Fetch doc["a"]["b"] for path "a.b"; missing key = actionable exit 2."""
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            die(f"{filename}: missing key '{path}' — the report schema "
                f"changed or the bench was interrupted; regenerate it")
        node = node[key]
    return node


def entries(doc, filename):
    """Yield (label, entry) for every executor measurement in a report."""
    yield "sequential", get(doc, "sequential", filename)
    if "sequential_guard" in doc:
        yield "sequential_guard", doc["sequential_guard"]
    yield "threaded", get(doc, "threaded", filename)
    for sweep in doc.get("sweep", []):
        yield f"sweep[threads={sweep.get('threads', '?')}]", sweep


def field(entry, label, name, filename):
    if name not in entry:
        die(f"{filename}: entry '{label}' is missing '{name}' — "
            f"regenerate the report")
    return entry[name]


def check_pdes(baseline, current, args):
    for doc, name in ((baseline, args.baseline), (current, args.current)):
        if doc.get("schema") != "massf.bench_pdes.v3":
            die(f"{name}: unexpected schema {doc.get('schema')!r} "
                f"(want massf.bench_pdes.v3)")

    golden = get(baseline, "sequential.checksum", args.baseline)
    golden_events = get(baseline, "sequential.events", args.baseline)
    golden_windows = get(baseline, "sequential.windows", args.baseline)
    failures = []

    # Determinism: exact, for every entry in the current report.
    for label, entry in entries(current, args.current):
        for name, want in (("checksum", golden), ("events", golden_events),
                           ("windows", golden_windows)):
            got = field(entry, label, name, args.current)
            if got != want:
                failures.append(f"{label}: {name} {got} != golden {want}")

    # Throughput: compare matching (threads, guard) keys — like with like;
    # runner core counts differ, so entries absent from either report are
    # skipped, not failed. The guard flag is part of the key so the
    # supervised row never gates (or hides behind) the unguarded one.
    def entry_key(label, e, filename):
        return (field(e, label, "threads", filename),
                bool(e.get("guard", False)))

    host_cpus = current.get("config", {}).get("host_cpus", 0)
    base_by_key = {
        entry_key(label, e, args.baseline): (label, e)
        for label, e in entries(baseline, args.baseline)}
    for label, entry in entries(current, args.current):
        workers = entry.get("threads", 0)
        if workers > host_cpus:
            print(f"check_bench: note: {label} runs {workers} workers on "
                  f"{host_cpus} cpus — events/s is scheduler-bound, "
                  f"skipping throughput check", file=sys.stderr)
            continue
        match = base_by_key.get(entry_key(label, entry, args.current))
        if match is None:
            print(f"check_bench: note: no baseline for {label}, "
                  f"skipping throughput check", file=sys.stderr)
            continue
        base_eps = field(match[1], match[0], "events_per_sec", args.baseline)
        cur_eps = field(entry, label, "events_per_sec", args.current)
        floor = base_eps * (1.0 - args.tolerance)
        if cur_eps < floor:
            failures.append(
                f"{label}: {cur_eps:.0f} events/s is below {floor:.0f} "
                f"(baseline {base_eps:.0f} minus "
                f"{args.tolerance:.0%} tolerance)")

    # Wait accounting: the summed and per-thread-mean wait fields must
    # agree (mean * threads == sum, within float-formatting slack).
    for label, entry in entries(current, args.current):
        if "barrier_wait_mean_s" not in entry:
            continue
        threads = field(entry, label, "threads", args.current)
        wait_sum = field(entry, label, "barrier_wait_s", args.current)
        mean = entry["barrier_wait_mean_s"]
        want = wait_sum / threads if threads > 0 else wait_sum
        if abs(mean - want) > 1e-9 + 1e-6 * abs(wait_sum):
            failures.append(
                f"{label}: barrier_wait_mean_s {mean} inconsistent with "
                f"barrier_wait_s {wait_sum} over {threads} threads")

    # Supervision overhead, within the current report only (same machine,
    # same run): the armed-watchdog sequential row must stay within
    # --max-guard-overhead of the unguarded sequential row. The watchdog
    # only reads atomics on a sleepy cadence, so the true cost is ~0; the
    # gate's slack absorbs run-to-run noise, not a real cost.
    cur = {label: e for label, e in entries(current, args.current)}
    guard_top = cur.get("sequential_guard")
    if guard_top is not None:
        seq_eps = field(cur["sequential"], "sequential", "events_per_sec",
                        args.current)
        guard_eps = field(guard_top, "sequential_guard", "events_per_sec",
                          args.current)
        floor = seq_eps * (1.0 - args.max_guard_overhead)
        if guard_eps < floor:
            failures.append(
                f"sequential_guard: {guard_eps:.0f} events/s is below "
                f"{floor:.0f} (unguarded {seq_eps:.0f} minus "
                f"{args.max_guard_overhead:.0%} supervision-overhead gate)")

    if failures:
        for failure in failures:
            print(f"check_bench: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check_bench: OK — checksum {golden}, "
          f"{sum(1 for _ in entries(current, args.current))} entries "
          f"within tolerance")
    return 0


def check_campaign(args):
    doc = load_json(args.campaign,
                    "run massf_campaign --campaign=... --out=... first")
    if doc.get("schema") != "massf.campaign.v1":
        die(f"{args.campaign}: unexpected schema {doc.get('schema')!r} "
            f"(want massf.campaign.v1)")
    failures = []

    failed = get(doc, "failed", args.campaign)
    for run_id in failed:
        failures.append(f"run '{run_id}' failed")
    runs = get(doc, "runs", args.campaign)
    if not runs:
        failures.append("roll-up contains no runs")
    for run in runs:
        if not run.get("ok", False) and run.get("id") not in failed:
            failures.append(f"run '{run.get('id')}' not ok but absent from "
                            f"the failed list — roll-up is inconsistent")

    golden = get(doc, "golden", args.campaign)
    for run_id, checksum in golden.items():
        if checksum != args.golden_checksum:
            failures.append(f"{run_id}: checksum {checksum} != pinned "
                            f"{args.golden_checksum}")

    if args.compare:
        other = load_json(args.compare,
                          "run the same campaign at a second worker count")
        a, b = dict(doc), dict(other)
        a.pop("timing", None)
        b.pop("timing", None)
        if a != b:
            diff_keys = [k for k in (set(a) | set(b)) if a.get(k) != b.get(k)]
            failures.append(
                f"{args.campaign} and {args.compare} differ outside "
                f"'timing' (keys: {', '.join(sorted(diff_keys))}) — "
                f"campaign results are not worker-count independent")

    if failures:
        for failure in failures:
            print(f"check_bench: FAIL: {failure}", file=sys.stderr)
        return 1
    compared = f", matches {args.compare} modulo timing" if args.compare \
        else ""
    print(f"check_bench: OK — campaign '{doc.get('name', '')}': "
          f"{len(runs)} runs ok, {len(golden)} golden row(s) at the pinned "
          f"checksum{compared}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_pdes.json")
    parser.add_argument("--current", default="current.json")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="max fractional events/s regression (default 0.5)")
    parser.add_argument("--allow-missing-baseline", action="store_true",
                        help="exit 0 with a note when the baseline file does "
                             "not exist (first run of a new bench)")
    parser.add_argument("--max-guard-overhead", type=float, default=0.10,
                        help="massf.bench_pdes.v3: max fractional events/s "
                             "cost of the armed-watchdog sequential_guard "
                             "row vs the unguarded sequential row in the "
                             "same report (default 0.10)")
    parser.add_argument("--campaign", metavar="ROLLUP",
                        help="massf.campaign.v1: gate this campaign roll-up "
                             "instead of a bench report")
    parser.add_argument("--compare", metavar="ROLLUP",
                        help="with --campaign: a second roll-up that must "
                             "be identical modulo its 'timing' section")
    parser.add_argument("--golden-checksum", default="807988445054369792",
                        help="with --campaign: the pinned golden-row "
                             "checksum (string, as serialized)")
    args = parser.parse_args()

    if args.campaign:
        return check_campaign(args)

    current = load_json(
        args.current,
        "run the bench with --out/--json first (see the module docstring)")

    if not os.path.exists(args.baseline):
        if args.allow_missing_baseline:
            print(f"check_bench: note: baseline {args.baseline} missing, "
                  f"nothing to compare against (--allow-missing-baseline)")
            return 0
        die(f"baseline {args.baseline} not found — commit one from a "
            f"trusted run, or pass --allow-missing-baseline for a first run")
    baseline = load_json(args.baseline, "the committed baseline is corrupt")
    return check_pdes(baseline, current, args)


if __name__ == "__main__":
    sys.exit(main())
