#!/usr/bin/env bash
# Build and run the input- and arithmetic-sensitive tests under
# UndefinedBehaviorSanitizer.
#
# Signed overflow, out-of-range shifts and bad casts hide where untrusted
# numbers meet arithmetic: checkpoint and gallery loaders size buffers from
# header fields, and the Algorithm 2 loop indexes tensors by deck positions
# restored from those checkpoints. This script configures a dedicated build
# tree with -DDUO_SANITIZE=undefined and runs the SparseQuery, failure-mode,
# serialization, campaign, crash-recovery and video-codec suites under UBSan.
#
# Usage: scripts/ubsan_check.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ubsan}"

cmake -B "$build_dir" -S "$repo_root" -DDUO_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_sparse_query test_failure_modes test_serialization \
  test_campaign test_crash_recovery test_video

# halt_on_error turns the first report into a failing test instead of a
# line in the log; print_stacktrace says where it came from.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
ctest --test-dir "$build_dir" \
  -R 'SparseQuery|FailureModes|Serialization|Campaign|CrashRecovery|Codec' \
  --output-on-failure --timeout 1800
