#!/usr/bin/env bash
# Build and run the concurrency-sensitive tests under ThreadSanitizer.
#
# The thread pool's caller-runs parallel_for, the parallel Conv3d / pooling /
# extraction kernels, and the serve layer's MPMC queue + micro-batching
# scheduler are the code most likely to regress into a data race; this
# script configures a dedicated build tree with -DDUO_SANITIZE=thread and
# runs the thread-pool, parallel-determinism, serve, and SparseQuery suites
# under TSan (the one Algorithm 2 loop, over blocking and served handles).
#
# Usage: scripts/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" -DDUO_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_thread_pool test_parallel_determinism test_gemm test_im2col \
  test_serve test_sparse_query test_failure_modes test_gradcheck test_ivf_index \
  test_retrieval test_campaign test_crash_recovery

# TSan multiplies runtime ~5-15x; give the suites generous slack but keep
# the halt-on-first-race behaviour so CI fails loudly. The regex picks up the
# fault-tolerance suites too: FaultInjection/Resilient (retrying clients on a
# faulty server), Serve.ConcurrentShutdownIsSafe (the shutdown-race
# regression), FailureModes.ServeFaultMatrix* (fault-injected attacks), and
# the overload suites: Admission (rate limiting + reject/shed policies),
# Pacer (shared client-side token bucket), Circuit (breaker state machine).
# Conv3d covers Conv3dKernels; Im2col runs the per-thread scratch planes of
# im2col/col2im on a 4-worker pool.
# scripts/tsan.supp silences the known exception_ptr refcount false positive
# from the uninstrumented libstdc++ (see the file for details).
export TSAN_OPTIONS="suppressions=$repo_root/scripts/tsan.supp ${TSAN_OPTIONS:-halt_on_error=1}"
ctest --test-dir "$build_dir" \
  -R 'ThreadPool|ParallelDeterminism|Gemm|Conv3d|Im2col|Pooling|Extractor|Gallery|Serve|SparseQuery|FaultInjection|Resilient|Admission|Pacer|Aimd|Circuit|CheckGrad|Ivf|RetrievalIndex|Campaign|CrashRecovery' \
  --output-on-failure --timeout 1800

# The overload soak stresses the admission controller, rate limiter, pacer,
# and expiry shedding from concurrent client threads — the exact surfaces a
# race would corrupt — so run its smoke pass under TSan too. --aimd adds the
# adaptive pacer's feedback path (on_success/on_overload from every client
# thread into the shared bucket) to the surfaces under test.
cmake --build "$build_dir" -j "$(nproc)" --target overload_soak
DUO_THREADS=8 "$build_dir/bench/overload_soak" --smoke --aimd

# The campaign soak adds per-client accounting and checkpointing sessions on
# top of the same concurrent serving surfaces; its kill/resume smoke pass
# runs under TSan for the same reason.
cmake --build "$build_dir" -j "$(nproc)" --target campaign_soak
DUO_THREADS=8 "$build_dir/bench/campaign_soak" --smoke

# The crash soak adds abrupt server crashes, snapshot/restart, and client
# reconnects — the chaos thread races every serving surface by design — so
# its smoke pass runs under TSan as well.
cmake --build "$build_dir" -j "$(nproc)" --target crash_soak
DUO_THREADS=8 "$build_dir/bench/crash_soak" --smoke
