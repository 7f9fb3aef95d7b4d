#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DGPBFT_SANITIZE=thread) in a
# separate build directory and runs the suites that exercise real threads:
# the parallel MAC plane (ordered-runner unit tests + the 20-seed
# determinism-under-parallelism sweep), the crypto tests that hammer the
# shared KeyRegistry caches from worker threads, and the SHA-256 tests, one
# of which picks the compression kernel from eight threads at once. Any
# data race aborts the run, so a green exit means the worker-pool plane is
# race-clean.
#
# Kept separate from check_sanitizers.sh because TSan and ASan cannot be
# combined in one binary; each gets its own tree.
#
# Knobs:
#   GPBFT_TSAN_BUILD_DIR=build-tsan   build directory (default build-tsan)
#   GPBFT_TSAN_JOBS=N                 parallel ctest jobs (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${GPBFT_TSAN_BUILD_DIR:-build-tsan}"
JOBS="${GPBFT_TSAN_JOBS:-$(nproc)}"

cmake -B "${BUILD_DIR}" -G Ninja -DGPBFT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}"

TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
ctest --test-dir "${BUILD_DIR}" -L tier1-parallel --output-on-failure -j "${JOBS}"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
ctest --test-dir "${BUILD_DIR}" -R "Sha256|Authenticator|HmacKey|Seal\." \
  --output-on-failure -j "${JOBS}"

# End-to-end threaded run under TSan: a full seeded scenario with the MAC
# plane fanned out over 8 threads, byte-compared against the same build's
# single-threaded run. Covers the worker/sequencer/lazy-payload interplay a
# unit test cannot.
TSAN_DIR="${BUILD_DIR}/tsan-ci"
mkdir -p "${TSAN_DIR}"
for threads in 1 8; do
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  "${BUILD_DIR}/tools/gpbft_cli" run --scenario scenarios/telemetry_smoke.scenario \
    --threads "${threads}" \
    --trace-out "${TSAN_DIR}/trace.t${threads}.json" \
    --metrics-out "${TSAN_DIR}/metrics.t${threads}.jsonl" >/dev/null
done
cmp "${TSAN_DIR}/trace.t1.json" "${TSAN_DIR}/trace.t8.json"
cmp "${TSAN_DIR}/metrics.t1.jsonl" "${TSAN_DIR}/metrics.t8.jsonl"
