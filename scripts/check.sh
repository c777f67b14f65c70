#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the unit tests.
#
#   scripts/check.sh            # tier-1 build + ctest, then asan + ubsan
#   scripts/check.sh --fast     # tier-1 only
#
# Tier-1 (the gate every PR must keep green):
#   cmake -B build -S . && cmake --build build -j && ctest
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"

# --timeout turns a hung test into a hard failure; set -e propagates any
# nonzero ctest exit (failures and timeouts alike) to the caller/CI.
CTEST_TIMEOUT="${KS_CTEST_TIMEOUT:-300}"

# Failing chaos scenarios drop their RunReport + Perfetto trace here (the
# failure output prints the exact paths and the ks_explain invocation).
# Disk-fault sweeps (KS_CHAOS_PROFILE=disk_faults) write through the same
# directory, so failed recovery/power-loss seeds land here too.
export KS_CHAOS_ARTIFACT_DIR="${KS_CHAOS_ARTIFACT_DIR:-${PWD}/build/chaos-artifacts}"

report_chaos_artifacts() {
  # Only on failure: passing runs still exercise the injected-violation
  # harness test, whose artifacts are expected and not worth shouting about.
  # Those expected artifacts — and any storage/recovery dumps from the
  # disk-fault sweep — are removed on success so repeated runs don't
  # accumulate stale files that would muddy a later failure listing.
  if [ "$1" -ne 0 ]; then
    if compgen -G "${KS_CHAOS_ARTIFACT_DIR}/*" >/dev/null 2>&1; then
      echo "== chaos failure artifacts (report + perfetto trace) =="
      ls -l "${KS_CHAOS_ARTIFACT_DIR}"
    fi
  else
    rm -rf "${KS_CHAOS_ARTIFACT_DIR:?}"/* 2>/dev/null || true
  fi
}
trap 'report_chaos_artifacts $?' EXIT

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure --timeout "${CTEST_TIMEOUT}" \
  -j "${JOBS}")

if [[ "${1:-}" == "--fast" ]]; then
  echo "== done (fast mode: sanitizer pass skipped) =="
  exit 0
fi

TEST_TARGETS="$(sed -n 's/^ks_test(\([A-Za-z0-9_]*\).*)$/\1/p' tests/CMakeLists.txt)"

# Two separate sanitizer builds: asan (heap/stack corruption) and ubsan
# (with -fno-sanitize-recover=all, so any UB report is a hard failure).
for SAN in asan ubsan; do
  echo "== ${SAN}: configure + build unit tests =="
  cmake --preset "${SAN}" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "build-${SAN}" -j "${JOBS}" --target ${TEST_TARGETS}

  echo "== ${SAN}: ctest =="
  (cd "build-${SAN}" && ctest --output-on-failure \
    --timeout "${CTEST_TIMEOUT}" -j "${JOBS}")
done

echo "== all checks passed =="
