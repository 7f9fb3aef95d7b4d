#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DGPBFT_SANITIZE=thread) in a
# separate build directory and runs the crypto tests. Two of them start
# threads: Authenticator.RegistryIsConsistentUnderConcurrentDerivation fills
# the shared KeyRegistry caches from eight threads, and
# Sha256.FirstUseFromManyThreadsAgrees picks the compression kernel from
# eight threads at once. The simulator itself runs on one thread; this leg
# guards the crypto layer's own promise that its const calls are safe to
# make concurrently (the KeyRegistry locks, HmacKey::mac(), the one-time
# kernel pick). Any data race aborts the run.
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
ctest --test-dir "${BUILD_DIR}" -R "Sha256|Authenticator|HmacKey|Seal\." \
  --output-on-failure -j "${JOBS}"
