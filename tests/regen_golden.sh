#!/usr/bin/env bash
# Regenerates the golden trace checksum pinned by the regression gates.
#
# The value is the golden-ring checksum (lps=32, chain=64, hops=2000,
# lookahead 1 ms) that appears in:
#   - BENCH_pdes.json            ("checksum" of every executor entry)
#   - src/pdes/golden_ring.hpp   (kGoldenRingChecksum, which every golden
#                                 test compares to)
#
# Only regenerate after an *intentional* change to the workload or the
# event-ordering contract; an unexpected drift is a regression, not a
# reason to re-pin. Update every location above together, and refresh
# BENCH_pdes.json itself by running bench_pdes on a quiet machine.
#
# Usage: tests/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail

build_dir="${1:-build}"
bench="${build_dir}/bench/bench_pdes"
if [[ ! -x "${bench}" ]]; then
  echo "error: ${bench} not found — build first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

checksum="$("${bench}" --print-golden)"
echo "golden checksum: ${checksum}"
echo "pin this value in BENCH_pdes.json, src/pdes/golden_ring.hpp"
echo "(kGoldenRingChecksum), and scripts/check_bench.py."
