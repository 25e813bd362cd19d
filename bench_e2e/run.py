#!/usr/bin/env python3
"""End-to-end benchmark of the paper pipeline (bench_e2e/README.md).

Builds the bench_e2e program from source, runs whole studies of one
workload back to back for --seconds, checks every measured run's output
and prints one JSON result as the last line of stdout:

    python3 bench_e2e/run.py --workload link_flaps --seed 2004 \\
        --seconds 50 --trace 0

--trace 0 reports the end-to-end metrics (medians over the studies);
--trace 1 alternates untraced and traced studies and reports the
per-layer metrics plus trace_overhead. --regen-reference rewrites the
committed reference signatures of a workload for --seed (default 2004).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("hybrid_background", "link_flaps")
DEFAULT_SEED = 2004
# A result must be printed within 180 s of the start; the build (first
# run in a checkout) is outside this budget.
STUDY_BUDGET_S = 150.0
# Fewest studies per run (each on its own sub-seed) and, under --trace 1,
# fewest untraced/traced pairs; a run adds more while --seconds allows.
MIN_STUDIES = 3
MIN_TRACED_ROUNDS = 1
# Studies of one seed whose signatures the reference holds.
REFERENCE_STUDIES = 4
SUB_SEED_STRIDE = 1_000_003


class BenchError(Exception):
    pass


def log(msg):
    print(f"[bench_e2e] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the bench_e2e program; returns its path."""
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "bench_e2e"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return build_dir / "bench_e2e"


def child_env():
    # Process-wide MASSF_* defaults (sync protocol, guard, full scale)
    # would silently change what is measured.
    return {k: v for k, v in os.environ.items() if not k.startswith("MASSF_")}


def run_study(binary, workload, seed, scale, trace, timeout_s):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout_s, 1.0), env=child_env())
    except subprocess.TimeoutExpired:
        raise BenchError(f"study timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"study exited {proc.returncode}: {' '.join(cmd)}\n"
                         f"{proc.stderr[-2000:]}")
    study = json.loads(proc.stdout)
    if not study["stamp"]["optimized"]:
        raise BenchError("refusing numbers from an unoptimised build")
    return study


def sub_seed(seed, index):
    """Scenario seed of the index-th study of a run: the first is the run's
    own seed, the rest are spread out from it. Each study builds its own
    network, so a run's medians average over several topologies instead of
    resting on one."""
    return seed + SUB_SEED_STRIDE * index


def reference_path(workload, scale):
    suffix = "" if scale == "full" else f".{scale}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def load_reference(workload, scale):
    """Committed signatures keyed by scenario seed, then (kind, executor)."""
    path = reference_path(workload, scale)
    if not path.exists():
        return {}
    ref = json.loads(path.read_text())
    return {study["seed"]: {(c["kind"], c["executor"]): c["signature"]
                            for c in study["cells"]}
            for study in ref["studies"]}


def signatures(study):
    return {(c["kind"], c["executor"]): c["signature"] for c in study["cells"]}


def check_study(study, reference, twin=None):
    """Returns (attempted, failed, reasons) over the study's cells.

    A cell fails if it threw or was cancelled, if the threaded HPROF rerun
    differs from the sequential HPROF run, if it differs from the committed
    reference for its scenario seed, or if it differs from `twin`, an
    earlier study of the same scenario seed (tracing must not change what
    the simulation computes).
    """
    cells = study["cells"]
    seq_hprof = signatures(study).get(("HPROF", "sequential"))
    expected = reference.get(study["stamp"]["seed"], {})
    twin_sigs = signatures(twin) if twin else {}
    failed, reasons = 0, []
    for c in cells:
        key = (c["kind"], c["executor"])
        sig = c["signature"]
        why = None
        if not c["ok"]:
            why = c["error"] or "failed"
        elif c["executor"] == "threaded" and sig != seq_hprof:
            why = "threaded differs from sequential"
        elif expected and expected.get(key) != sig:
            why = "differs from the reference signature"
        elif twin_sigs and twin_sigs.get(key) != sig:
            why = "traced run differs from untraced run"
        if why:
            failed += 1
            reasons.append(f"seed {study['stamp']['seed']} {key[0]}/{key[1]}: "
                           f"{why}")
    return len(cells), failed, reasons


def end_to_end(study):
    p = study["phases"]
    return {
        "pipeline_s": p["setup_s"] + p["run_s"],
        "setup_s": p["setup_s"],
        "run_s": p["run_s"],
        "run_threaded_s": p["run_threaded_s"],
        "realtime_factor": p["virtual_s"] / p["run_s"],
        "peak_rss_mb": p["peak_rss_mb"],
    }


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def median_of(rows, name):
    return statistics.median(row[name] for row in rows)


def run_averages(studies):
    """End-to-end metrics of a run: means over its studies, except setup_s.

    Each study runs another topology, and one topology's run time differs
    from another's by up to 1.5x, so a run's median would hinge on which
    topology lands in the middle; the mean weighs every topology.
    realtime_factor is total virtual over total wall time. setup_s is the
    median set-up of the run.
    """
    rows = [end_to_end(s) for s in studies]
    values = {name: statistics.fmean(row[name] for row in rows)
              for name in rows[0]}
    values["setup_s"] = median_of(rows, "setup_s")
    values["realtime_factor"] = (
        sum(s["phases"]["virtual_s"] for s in studies)
        / sum(s["phases"]["run_s"] for s in studies))
    return values


def regen_reference(binary, args):
    studies = []
    for index in range(REFERENCE_STUDIES):
        study = run_study(binary, args.workload, sub_seed(args.seed, index),
                          args.scale, False, STUDY_BUDGET_S)
        _, failed, reasons = check_study(study, {})
        if failed:
            raise BenchError("not writing a reference from a failing study: "
                             + "; ".join(reasons))
        studies.append({
            "seed": study["stamp"]["seed"],
            "cells": [{"kind": c["kind"], "executor": c["executor"],
                       "signature": c["signature"]} for c in study["cells"]],
        })
    ref = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
           "stamp": study["stamp"], "studies": studies}
    path = reference_path(args.workload, args.scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ref, indent=1) + "\n")
    log(f"wrote {path.relative_to(ROOT)}")


def measure(binary, args):
    """Runs studies of successive sub-seeds while the next one still fits
    in --seconds (at least MIN_STUDIES of them), each followed by a traced
    twin under --trace 1."""
    reference = load_reference(args.workload, args.scale)
    plain, traced = [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        seed = sub_seed(args.seed, len(plain))
        for trace in (False, True) if args.trace else (False,):
            budget = STUDY_BUDGET_S - (time.monotonic() - start)
            study = run_study(binary, args.workload, seed, args.scale, trace,
                              budget)
            n, bad, reasons = check_study(study, reference,
                                          plain[-1] if trace else None)
            attempted += n
            failed += bad
            for r in reasons:
                log(f"cell failed: {r}")
            log(f"study seed={seed} trace={int(trace)} " + " ".join(
                f"{k}={v:.4g}" for k, v in end_to_end(study).items()))
            (traced if trace else plain).append(study)
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_STUDIES
        if (len(plain) >= min_rounds and elapsed + per_round > args.seconds
                or elapsed + per_round > STUDY_BUDGET_S):
            break

    stamp = dict(plain[0]["stamp"], seed=args.seed)
    if stamp["oversubscribed"]:
        log(f"host has {stamp['host_cpus']} CPUs for {stamp['workers']} "
            "workers: threaded timings are oversubscribed")
    print(json.dumps({"stamp": stamp, "studies": len(plain) + len(traced),
                      "reference_checked": any(
                          s["stamp"]["seed"] in reference for s in plain)}))

    if not args.trace:
        values = run_averages(plain)
        units = declared_units("end_to_end")
    else:
        layers = [s["layers"] for s in traced]
        values = {name: median_of(layers, name) for name in layers[0]}
        plain_pipeline = median_of([end_to_end(s) for s in plain],
                                   "pipeline_s")
        traced_pipeline = median_of([end_to_end(s) for s in traced],
                                    "pipeline_s")
        values["trace_overhead"] = traced_pipeline / plain_pipeline - 1.0
        units = declared_units("per_layer")
    metrics = {name: {"value": v, "unit": units.get(name, "undeclared")}
               for name, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: shrunken networks for the smoke test")
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite the workload's reference signatures "
                    "for the studies of --seed")
    args = ap.parse_args()

    try:
        binary = build()
        if args.regen_reference:
            regen_reference(binary, args)
            return 0
        result = measure(binary, args)
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
