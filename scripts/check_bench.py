#!/usr/bin/env python3
"""Regression gate for bench JSON reports.

Schemas understood (dispatched on the current report's "schema" field):

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
      matched by (threads, guard, shards). A row whose thread or shard
      count exceeds the current report's config.host_cpus is skipped with
      a note: its workers share cores, so its events/s measures the OS
      scheduler, not the executor.
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
    * Sharded transport (self-contained): when the current report carries a
      "sharded" entry (multi-process executor, DESIGN.md section 5j), its
      checksum/events/windows ride the determinism check like every other
      row, its events/s is gated against the baseline entry with the same
      "shards" count (the key carries shards, default 0, so process rows
      never gate against thread rows), and its ring_wait_share — the share
      of total worker-seconds spent blocked on the cross-shard rings and
      control page — must stay under --max-ring-wait-share (default 0.5).
      The share gate is skipped when config.host_cpus < shards: an
      oversubscribed host pins workers in transport waits by scheduling,
      not by protocol cost.

  massf.bench_rebalance.v1 — self-contained gate on a
  `bench_rebalance --json` run (no baseline file needed):
    * sequential/threaded full-signature equality must hold with
      rebalancing enabled;
    * the rebalanced run must beat the static mapping by at least
      --min-improvement modeled time (default 0.15);
    * the controller must actually have migrated something.

  massf.bench_hybrid.v1 — self-contained gate on a `bench_hybrid --out`
  run (no baseline file needed):
    * host_scale (largest swept source multiplier the hybrid link model
      carries within the packet reference's event budget) must reach
      --min-host-scale (default 10);
    * event_ratio (packet events / hybrid events at equal sources) must
      reach --min-event-ratio (default 10);
    * the hybrid run's aggregate fidelity drift vs the packet reference at
      equal sources must stay inside --max-duration-err (default 0.5,
      mean flow duration), --max-goodput-err (default 0.2, mean per-flow
      goodput), and --max-completed-err (default 0.4, completed-flow
      count). Bounds carry ~2x headroom over measured values (duration
      0.27, goodput 0.05, completed 0.17 at the full scale) — the gate
      catches model regressions, not seed noise;
    * every run must have completed at least one background flow.

  massf.campaign.v1 — gate on a `massf_campaign` roll-up, selected with
  --campaign PATH (no baseline file needed):
    * no failed runs (the "failed" list must be empty and every run ok);
    * every golden calibration row must report --golden-checksum (default:
      the pinned PDES-ring value), wiring the engine-determinism contract
      into campaign artifacts;
    * with --compare OTHER.json, the two roll-ups must be identical once
      their "timing" sections are dropped — the 1-vs-N-workers
      reproducibility check the nightly job runs.

Usage:
  bench_pdes --out current.json   # NOT the default --out, which would
                                  # overwrite the committed baseline
  scripts/check_bench.py [--baseline BENCH_pdes.json] [--current current.json]
                         [--tolerance 0.5] [--allow-missing-baseline]
                         [--min-improvement 0.15]

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
    if "sharded" in doc:
        yield "sharded", doc["sharded"]
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

    # Throughput: compare matching (threads, guard, shards) keys — like
    # with like; runner core counts differ, so entries absent from either
    # report are skipped, not failed. The guard flag is part of the key so
    # the supervised row never gates (or hides behind) the unguarded one;
    # shards (0 for every in-process row) keeps the multi-process row in
    # its own lane — it has no "threads" field at all.
    def entry_key(label, e, filename):
        shards = e.get("shards", 0)
        if shards:
            return (0, False, shards)
        return (field(e, label, "threads", filename),
                bool(e.get("guard", False)), 0)

    host_cpus = current.get("config", {}).get("host_cpus", 0)
    base_by_key = {
        entry_key(label, e, args.baseline): (label, e)
        for label, e in entries(baseline, args.baseline)}
    for label, entry in entries(current, args.current):
        workers = max(entry.get("threads", 0), entry.get("shards", 0))
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

    # Sharded transport share, within the current report only: the fraction
    # of total worker-seconds the multi-process executor spent blocked on
    # its rings + control page. Skipped on oversubscribed hosts — there the
    # waits measure core starvation, not transport cost.
    cur = {label: e for label, e in entries(current, args.current)}
    sharded_top = cur.get("sharded")
    if sharded_top is not None:
        shards = field(sharded_top, "sharded", "shards", args.current)
        share = field(sharded_top, "sharded", "ring_wait_share", args.current)
        if host_cpus < shards:
            print(f"check_bench: note: host has {host_cpus} cpus for "
                  f"{shards} shard workers — transport waits are scheduler-"
                  f"bound, skipping ring-wait-share check", file=sys.stderr)
        elif share > args.max_ring_wait_share:
            failures.append(
                f"sharded: ring_wait_share {share:.3f} exceeds the "
                f"{args.max_ring_wait_share:.2f} gate — workers spend too "
                f"much of the run blocked on the cross-shard transport")

    # Supervision overhead, within the current report only (same machine,
    # same run): the armed-watchdog sequential row must stay within
    # --max-guard-overhead of the unguarded sequential row. The watchdog
    # only reads atomics on a sleepy cadence, so the true cost is ~0; the
    # gate's slack absorbs run-to-run noise, not a real cost.
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


def check_rebalance(current, args):
    failures = []
    if not get(current, "rebalanced.signature_equal", args.current):
        failures.append("rebalanced run: sequential vs threaded event "
                        "signatures differ (determinism broken)")
    improvement = get(current, "improvement", args.current)
    if improvement < args.min_improvement:
        failures.append(
            f"modeled-time improvement {improvement:.1%} is below the "
            f"{args.min_improvement:.0%} gate")
    if get(current, "rebalanced.moves", args.current) <= 0:
        failures.append("rebalanced run migrated nothing — the controller "
                        "never triggered")

    if failures:
        for failure in failures:
            print(f"check_bench: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check_bench: OK — rebalance improvement {improvement:.1%}, "
          f"{get(current, 'rebalanced.moves', args.current)} moves, "
          f"signatures equal")
    return 0


def check_hybrid(current, args):
    failures = []
    host_scale = get(current, "host_scale", args.current)
    if host_scale < args.min_host_scale:
        failures.append(
            f"host_scale {host_scale}x is below the {args.min_host_scale}x "
            f"gate — the hybrid model no longer carries 10x the sources "
            f"within the packet event budget")
    event_ratio = get(current, "event_ratio", args.current)
    if event_ratio < args.min_event_ratio:
        failures.append(
            f"event_ratio {event_ratio:.1f}x is below the "
            f"{args.min_event_ratio}x gate")
    for name, bound in (("duration_err", args.max_duration_err),
                        ("goodput_err", args.max_goodput_err),
                        ("completed_err", args.max_completed_err)):
        err = get(current, name, args.current)
        if err > bound:
            failures.append(
                f"{name} {err:.3f} exceeds the {bound} fidelity gate — the "
                f"fluid model drifted from the packet reference")
    for run in get(current, "runs", args.current):
        if run.get("completed", 0) <= 0:
            failures.append(
                f"{run.get('fidelity')}@{run.get('sources')} sources "
                f"completed no background flows — the workload stalled")

    if failures:
        for failure in failures:
            print(f"check_bench: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check_bench: OK — hybrid host_scale {host_scale}x at "
          f"{event_ratio:.1f}x fewer events; fidelity err "
          f"duration {get(current, 'duration_err', args.current):.3f} "
          f"goodput {get(current, 'goodput_err', args.current):.3f} "
          f"completed {get(current, 'completed_err', args.current):.3f}")
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
    parser.add_argument("--min-improvement", type=float, default=0.15,
                        help="massf.bench_rebalance.v1: minimum modeled-time "
                             "improvement fraction (default 0.15)")
    parser.add_argument("--max-guard-overhead", type=float, default=0.10,
                        help="massf.bench_pdes.v3: max fractional events/s "
                             "cost of the armed-watchdog sequential_guard "
                             "row vs the unguarded sequential row in the "
                             "same report (default 0.10)")
    parser.add_argument("--max-ring-wait-share", type=float, default=0.5,
                        help="massf.bench_pdes.v3: max share of sharded "
                             "worker-seconds spent blocked on the cross-"
                             "shard rings/control page (default 0.5; "
                             "skipped on oversubscribed hosts)")
    parser.add_argument("--min-host-scale", type=float, default=10,
                        help="massf.bench_hybrid.v1: minimum source "
                             "multiplier the hybrid model must carry within "
                             "the packet event budget (default 10)")
    parser.add_argument("--min-event-ratio", type=float, default=10,
                        help="massf.bench_hybrid.v1: minimum packet/hybrid "
                             "event ratio at equal sources (default 10)")
    parser.add_argument("--max-duration-err", type=float, default=0.5,
                        help="massf.bench_hybrid.v1: max relative mean-flow-"
                             "duration error vs the packet reference "
                             "(default 0.5)")
    parser.add_argument("--max-goodput-err", type=float, default=0.2,
                        help="massf.bench_hybrid.v1: max relative mean-"
                             "goodput error vs the packet reference "
                             "(default 0.2)")
    parser.add_argument("--max-completed-err", type=float, default=0.4,
                        help="massf.bench_hybrid.v1: max relative completed-"
                             "flow-count error vs the packet reference "
                             "(default 0.4)")
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
    schema = current.get("schema")

    if schema == "massf.bench_rebalance.v1":
        # Self-contained: the report carries both the static baseline run
        # and the rebalanced run.
        return check_rebalance(current, args)

    if schema == "massf.bench_hybrid.v1":
        # Self-contained: the report carries the packet reference and the
        # hybrid sweep from the same binary.
        return check_hybrid(current, args)

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
