#!/usr/bin/env bash
# Build with ThreadSanitizer and run the tier-1 ctest suite under it.
#
# The store's locking (reader-writer entry latches, shard maps, the
# session-sharded reverse index and its watermarks) and the LockTable's
# parked-waiter queues (a waiter is granted under its shard mutex by
# whichever thread releases the key, or expired by the cluster's tick on
# the timer, and its continuation runs from that thread's run queue) must be proven
# race-clean on every change, not assumed: this is the proof. So must the
# ParticipantTable's open entries and per-session decided marks, which
# every Prepare and Decide handler reads and raises under one mutex, on any
# client thread at zero delay and on the timer otherwise. Any TSan report
# fails the run.
#
# `-L chaos` runs the chaos-labelled suites instead: the seed-parameterized
# fault-injection property tests (psi_history_chaos_test,
# invariant_chaos_test) and the deterministic recovery scenarios
# (fault_recovery_test). Fault injection drives the retry, dedup and
# gap-repair paths, which race the ordinary fast path by design. A failing
# seed is printed in the assertion message.
#
# Usage: scripts/check_tsan.sh [extra ctest args, e.g. -R MVStore, -L chaos]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
JOBS=$(nproc)

cmake -B "$BUILD_DIR" -S . \
  -DFWKV_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$JOBS"

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" "$@"
