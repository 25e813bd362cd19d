#!/usr/bin/env python3
"""Smoke test of the benchmark at a shrunken scale.

Runs every workload once untraced and once traced through run.py with
--scale smoke, and checks that
  * each run is correct with no failed cell,
  * the metric names (and units) printed are exactly the ones
    BENCHMARK.json declares: end_to_end untraced, per_layer traced,
  * each result is preceded by a run stamp.

    python3 bench_e2e/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAMP_KEYS = {"host_cpus", "build_type", "optimized", "ndebug", "compiler",
              "workload", "seed", "scale", "workers", "oversubscribed"}


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--scale", "smoke", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            try:
                info, result = run(workload, trace)
            except AssertionError as e:
                problems.append(f"{tag}: {e}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} cells failed")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            for name in sorted(set(printed) - set(declared[trace])):
                problems.append(f"{tag}: {name} printed but not declared")
            for name in sorted(set(declared[trace]) - set(printed)):
                problems.append(f"{tag}: {name} declared but not printed")
            for name in sorted(set(printed) & set(declared[trace])):
                if printed[name] != declared[trace][name]:
                    problems.append(f"{tag}: {name} unit {printed[name]} != "
                                    f"declared {declared[trace][name]}")
            missing = STAMP_KEYS - set(info.get("stamp", {}))
            if missing:
                problems.append(f"{tag}: stamp lacks {sorted(missing)}")
            if not info.get("reference_checked"):
                problems.append(f"{tag}: no reference signature was checked")
            print(f"{tag}: {result['attempted']} cells, "
                  f"{len(printed)} metrics", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("OK" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
