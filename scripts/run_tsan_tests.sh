#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DTRMMA_TSAN=ON) in a dedicated
# build directory and runs the concurrency-sensitive tests under it. Any
# data-race report fails the run.
#
# Usage: scripts/run_tsan_tests.sh [ctest args...]
#   With no args, runs the serving + chaos suites (the threaded surface);
#   pass your own ctest filter to widen or narrow the selection,
#   e.g. scripts/run_tsan_tests.sh -R telemetry
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${TRMMA_TSAN_BUILD_DIR:-${repo_root}/build-tsan}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTRMMA_TSAN=ON
cmake --build "${build_dir}" -j "${jobs}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

# Anchored suite names: a bare 'serve|chaos' would substring-match
# unrelated tests ("...Preserves...", "...Observed...") and miss the
# capitalized Serve/Chaos suites entirely. StackWalk/Postmortem/
# StallWatchdog/LockOrder are the postmortem-observability surface: signal
# rendezvous, lock-free in-flight registry, watchdog thread, and the
# lock-order detector's hook paths all cross threads. MmaConcurrency runs
# two threads through one shared MMA matcher.
if [ "$#" -eq 0 ]; then
  set -- -R '^(Serve|Chaos|Deadline|CircuitBreaker|MixSeed|FaultInjector|StackWalk|Postmortem|InflightRegistry|StallWatchdog|LockOrder|MmaConcurrency)'
fi

ctest --test-dir "${build_dir}" -j "${jobs}" --output-on-failure "$@"
