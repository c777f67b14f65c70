#!/usr/bin/env bash
# Run the pinned bench subset and write its artifacts, by default into the
# committed baselines in bench/baselines/.
#
#   scripts/refresh_baselines.sh [OUT_DIR]   # relative to the repo root
#
# Run this after an intentional perf or result change, eyeball the diff
# (`git diff bench/baselines`), and commit the new artifacts together with
# the change that caused them. The nightly bench job in
# .github/workflows/ci.yml runs this same script into its own directory and
# diffs that against the baselines, so the subset and knobs live only here.
#
# Keep in mind what the artifact stability contract says (see
# src/bench_core/artifact.hpp): only `bench`, `config` and `points` are
# byte-stable; `fingerprint`, `timing` and `profile` are host-volatile, so
# refreshed baselines always differ there. ks_bench_diff knows.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-bench/baselines}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# The pinned subset: fast, deterministic benches covering a census table,
# two figure sweeps, an ablation, the consumer-group partition-scaling
# sweep, the crash-recovery flush-discipline ablation, and the Table II
# static/oracle/online three-way (the one ANN-training bench worth the
# time: it pins the online controller's oracle-recovery headline).
SUBSET=(table1_states fig4_message_size fig6_polling ablation_semantics
        scaling_partitions recovery_scan table2_dynamic)

cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}" --target ks_bench

mkdir -p "${OUT}"
KS_BENCH_MESSAGES=4000 build/src/tools/ks_bench \
  --repeat 3 --out "${OUT}" "${SUBSET[@]}"

echo
echo "artifacts written to ${OUT}; against the baselines:" \
  "build/src/tools/ks_bench_diff bench/baselines ${OUT}"
