#!/usr/bin/env bash
# Fast CI gate: configure, build, run the tier-1 test label (everything
# except the long-running torture/chaos suites — those run in the full
# `ctest` sweep, see scripts/reproduce.sh), check every CLI output pinned in
# the golden manifest (tests/goldens.sha256) and smoke one bench harness on
# the coarse GPBFT_BENCH_QUICK grid so bench regressions surface before a
# full reproduction run.
#
# Knobs:
#   GPBFT_CI_BUILD_DIR=build   build directory (default build)
#   GPBFT_CI_JOBS=N            parallel ctest jobs (default nproc)
#   GPBFT_CI_SANITIZE=1        also run the ASan/UBSan leg
#                              (scripts/check_sanitizers.sh; off by default —
#                              it configures and builds its own tree)
set -euo pipefail
cd "$(dirname "$0")/.."

# Single-threaded by construction: nothing in the simulator starts a thread,
# so nothing under src/ may pull in a threading header to guard against one.
if grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*<(atomic|condition_variable|future|mutex|shared_mutex|thread)>' src; then
  echo "ci: src/ includes a threading header (listed above)" >&2
  exit 1
fi

# Run-level goldens live in tests/goldens.sha256 and nowhere else; the only
# 64-hex literals allowed in code are tests/crypto_test.cpp's known-answer
# vectors.
if grep -rnE '"[0-9a-fA-F]{64}"' --exclude=crypto_test.cpp tests bench tools examples; then
  echo "ci: a 64-hex literal outside tests/goldens.sha256 (listed above)" >&2
  exit 1
fi

# Diffs the SHA-256 of each named file under directory $1 against the line
# tests/goldens.sha256 pins for that name (names are paths relative to $1).
# A `<` line is the pinned one and a `>` line the actual one, in the
# manifest's format, so the diff is the re-pin.
check_goldens() {
  local dir="$1"
  shift
  if ! diff <(for name in "$@"; do awk -v name="${name}" '$2 == name' tests/goldens.sha256; done) \
            <(cd "${dir}" && sha256sum "$@"); then
    echo "ci: outputs under ${dir} differ from tests/goldens.sha256 (< pinned, > actual)" >&2
    exit 1
  fi
}

BUILD_DIR="${GPBFT_CI_BUILD_DIR:-build}"
JOBS="${GPBFT_CI_JOBS:-$(nproc)}"

# No -G: reuse whatever generator an existing build directory was
# configured with (fresh checkouts get the platform default). Warnings are
# errors here, so a new one fails the gate.
cmake -B "${BUILD_DIR}" -DGPBFT_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"

# `-L` is a regex, so this selects every tier1* label (adversarial, batch,
# perf, profile, tamper, telemetry) too; --no-tests=error fails the gate
# if a label change ever leaves nothing selected.
ctest --test-dir "${BUILD_DIR}" -L tier1 -j "${JOBS}" --output-on-failure --no-tests=error

# Golden gate (EXPERIMENTS.md "Goldens"): every checked-in scenario file
# runs once with trace and metrics exports, and so does the restart chaos
# campaign. Each run must exit 0 — a chaos scenario arms the invariant
# monitor and fails on any agreement break, SYBIL-SEATED /
# COMMITTEE-QUALITY / ERA-CONVERGENCE violation or liveness miss — and its
# stdout, trace and metrics must hash to their `scenario/` and `chaos/`
# lines in the manifest: fault plans, attack and tamper streams all replay
# from the file's seed. The fault-free telemetry smoke run and the tamper
# storm (the one with wire rejections) are also schema-checked, including
# check_trace.py's network conservation sums.
GOLDEN_DIR="${BUILD_DIR}/goldens-ci"
rm -rf "${GOLDEN_DIR}"
mkdir -p "${GOLDEN_DIR}/scenario" "${GOLDEN_DIR}/chaos"
outputs=()
for path in scenarios/*.scenario; do
  sc="scenario/$(basename "${path}" .scenario)"
  "${BUILD_DIR}/tools/gpbft_cli" run --scenario "${path}" \
    --trace-out "${GOLDEN_DIR}/${sc}.trace.json" \
    --metrics-out "${GOLDEN_DIR}/${sc}.metrics.jsonl" >"${GOLDEN_DIR}/${sc}.stdout"
  outputs+=("${sc}.stdout" "${sc}.trace.json" "${sc}.metrics.jsonl")
done
"${BUILD_DIR}/tools/gpbft_cli" chaos --seeds 3 --restarts 0.25 --disk-faults 0.2 \
  --intensity medium >"${GOLDEN_DIR}/chaos/restart-campaign.stdout"
outputs+=(chaos/restart-campaign.stdout)
check_goldens "${GOLDEN_DIR}" "${outputs[@]}"
if command -v python3 >/dev/null 2>&1; then
  for sc in telemetry_smoke tamper_storm; do
    python3 scripts/check_trace.py "${GOLDEN_DIR}/scenario/${sc}.trace.json" \
      "${GOLDEN_DIR}/scenario/${sc}.metrics.jsonl"
  done
else
  echo "ci: python3 not found; skipping telemetry schema check"
fi

# Fuzz gate: replay the checked-in malformed corpus and run a seeded
# mutation sweep over every wire-decode target. Each target carries its own
# totality + re-encode fixed-point oracle, so a decoder defect aborts the
# driver; zero crashes is the pass condition.
"${BUILD_DIR}/tools/gpbft_fuzz" replay fuzz/corpus
"${BUILD_DIR}/tools/gpbft_fuzz" mutate --seed 1 --iters 2000

# Corpus regeneration gate: `gpbft_fuzz corpus` derives every seed and
# mutant deterministically, so regenerating into an empty directory must
# reproduce the checked-in fuzz/corpus byte for byte. A diff means a codec
# or the scenario text format now emits different bytes: regenerate the
# corpus on purpose (`gpbft_fuzz corpus fuzz/corpus`) and review the change.
CORPUS_DIR="${BUILD_DIR}/corpus-ci"
rm -rf "${CORPUS_DIR}"
"${BUILD_DIR}/tools/gpbft_fuzz" corpus "${CORPUS_DIR}" >/dev/null
diff -r "${CORPUS_DIR}" fuzz/corpus

# Profiler gate (docs/observability.md "Profiling & perf analytics"). The
# probe unit tests and the guard test proving a profiled run's chain tip,
# metrics and trace are byte-identical to an unprofiled run carry the
# tier1-profile label (run above). End to end, a profiled run of the
# profiler's scenario must write the trace and metrics pinned for the
# unprofiled run above (the same `scenario/profile_pbft20` lines), and two
# profiled runs' exports must agree on every deterministic field (tree
# shape, site names, call counts — wall-clock ns are machine noise and
# excluded by check_trace.py --profile-same).
PROF_DIR="${BUILD_DIR}/profile-ci"
rm -rf "${PROF_DIR}"
mkdir -p "${PROF_DIR}/scenario"
"${BUILD_DIR}/tools/gpbft_cli" profile --scenario scenarios/profile_pbft20.scenario \
  --profile-out "${PROF_DIR}/profile.1.json" \
  --collapsed-out "${PROF_DIR}/collapsed.txt" \
  --trace-out "${PROF_DIR}/scenario/profile_pbft20.trace.json" \
  --metrics-out "${PROF_DIR}/scenario/profile_pbft20.metrics.jsonl" >/dev/null
"${BUILD_DIR}/tools/gpbft_cli" profile --scenario scenarios/profile_pbft20.scenario \
  --profile-out "${PROF_DIR}/profile.2.json" >/dev/null
check_goldens "${PROF_DIR}" scenario/profile_pbft20.trace.json \
  scenario/profile_pbft20.metrics.jsonl
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_trace.py "${PROF_DIR}/scenario/profile_pbft20.trace.json" \
    "${PROF_DIR}/scenario/profile_pbft20.metrics.jsonl" \
    --profile "${PROF_DIR}/profile.1.json" --profile "${PROF_DIR}/profile.2.json" \
    --profile-same "${PROF_DIR}/profile.1.json" "${PROF_DIR}/profile.2.json"
else
  echo "ci: python3 not found; skipping profile schema check"
fi

# One declarative-harness bench end to end: the Fig. 3(b) harness drives
# G-PBFT deployments through the ScenarioSpec factory on the coarse grid,
# single run per point (~7 s).
GPBFT_BENCH_QUICK=1 GPBFT_BENCH_RUNS=1 "${BUILD_DIR}/bench/fig3b_gpbft_latency"

# Perf smoke + regression gate: the message-plane scaling harness at its
# smallest point (n=20, both protocols, ~1 s). The harness itself exits
# nonzero if a seeded run's chain tip drifts from its `scale/` golden; on top
# of that, the fresh events/sec rows are appended (under an ephemeral
# "ci-smoke" label, to a COPY of the checked-in history — the repo file
# only gains rows deliberately, via GPBFT_BENCH_SCALE_LABEL) and
# bench_report.py gates the trajectory: a drop beyond GPBFT_PERF_MAX_DROP
# (default 60% — generous, CI machines differ) vs the last recorded label
# fails the build. The self-test leg proves the gate actually trips on an
# injected slowdown, so a silently-broken gate cannot pass. See
# docs/performance.md.
PERF_DIR="${BUILD_DIR}/perf-ci"
mkdir -p "${PERF_DIR}"
cp BENCH_scale.json "${PERF_DIR}/history.jsonl"
GPBFT_BENCH_SCALE_JSON="${PERF_DIR}/history.jsonl" \
  GPBFT_BENCH_SCALE_LABEL=ci-smoke \
  "${BUILD_DIR}/bench/bench_scale" --smoke
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_report.py self-test
  python3 scripts/bench_report.py gate --json "${PERF_DIR}/history.jsonl" \
    --current-label ci-smoke
else
  echo "ci: python3 not found; skipping perf-regression gate"
fi

# Million-device plane smoke: one run of a 10^6-virtual-device diurnal
# workload over O(regions) concrete endpoints. Gates on the `scale/plane`
# golden tip, open-loop completeness (every submission commits) and the
# wall budget (GPBFT_PLANE_BUDGET_SECS, default 120 s).
"${BUILD_DIR}/bench/bench_scale" --plane

# Micro-benchmark smoke: each harness runs every case once, briefly, so a
# case that crashes fails the gate. Timings are not checked here
# (scripts/reproduce.sh records them).
for micro in micro_crypto micro_geo micro_serde micro_sim; do
  "${BUILD_DIR}/bench/${micro}" --benchmark_min_time=0.001 >/dev/null
done

# Opt-in sanitizer leg: a full ASan/UBSan build + test sweep in its own
# build directory. Kept off the default path so the fast gate stays fast.
if [[ "${GPBFT_CI_SANITIZE:-0}" == "1" ]]; then
  scripts/check_sanitizers.sh
fi

echo "ci: OK"
