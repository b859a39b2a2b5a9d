#!/usr/bin/env bash
# Full verification gate for a PR:
#   1. tier-1 build + ctest (the suite every PR must keep green)
#   2. the observability suite (ctest -L trace: tracer, metrics, log sink)
#   3. the same suite under the ASan+UBSan preset
#   4. the experiment, pipeline and observability tests under TSan
#      (-DACTIVEDP_SANITIZE=thread), which is what certifies the per-seed
#      thread fan-out, the serving dispatchers and router, label matrices
#      read from several threads, and the tracer / metrics / retry-log write
#      paths race-free
#   5. the serving suite (ctest -L serve: snapshot export/IO round-trips,
#      the batched prediction service with served == offline across batch
#      sizes and a hot swap under load, and the shard router)
#   6. the pipeline chaos matrix (bench/chaos_matrix --matrix=pipeline:
#      fault sites x kinds x seeds through the offline pipeline, with fault
#      accounting and resumability checks; BENCH_chaos_pipeline.json is
#      archived to bench-archive/)
#   7. the serving chaos gate (bench/chaos_matrix --matrix=serve: the full
#      serve.* fault matrix — every injected fault cleanly rejected or
#      auto-recovered, zero served-digest divergence on the surviving path,
#      the rollback visible in the RunTrace timeline; BENCH_serve_chaos.json
#      is archived to bench-archive/)
#   8. the continuous-learning gate (bench/chaos_matrix --matrix=learn: the
#      LearnGuard fault matrix — every injected fault ends in a clean
#      rejection, quarantine or auto-rollback, and the loop keeps publishing
#      once the fault clears — plus its clean-waves drill: live traffic and
#      drifting feedback with >= 3 published retrains, each strictly
#      improving holdout accuracy, zero failed client requests and zero
#      served-digest divergence; BENCH_learn_chaos.json is archived to
#      bench-archive/)
#   9. the OpsPlane gate (ctest -L obs: flight-recorder ring/dump/verify and
#      SLO burn-rate engine tests; then the serve and learn chaos matrices,
#      whose per-cell incident checks require exactly one verified,
#      checksummed dump per breaker-trip/rollback trigger, only verified
#      dumps in learn cells, and zero dumps everywhere else — including the
#      serve matrix's clean-load drill, which must also meet every serving
#      SLO)
#  10. the TenantMesh gate (tests/shard_router_test: consistent-hash
#      stability, tenant isolation under one-tenant overload, and per-tenant
#      promote + forced rollback under bystander traffic, with tenant-tagged
#      instants and exactly one rollback incident dump)
#
# Usage: scripts/verify.sh [--skip-asan] [--skip-tsan] [--skip-chaos]
#                          [--skip-trace] [--skip-serve] [--skip-serve-chaos]
#                          [--skip-learn] [--skip-obs] [--skip-mt]
#                          [--only <gate>]
# --only runs a single gate (tier1, trace, asan, tsan, serve, chaos,
# serve-chaos, learn, obs, mt) after the shared tier-1 build, skipping
# everything else. Runs from any directory; build trees live next to the
# sources as build/, build-asan/ and build-tsan/. Performance is measured
# separately by perfbench/ (see BENCHMARK.json).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_ASAN=0
SKIP_TSAN=0
SKIP_CHAOS=0
SKIP_TRACE=0
SKIP_SERVE=0
SKIP_SERVE_CHAOS=0
SKIP_LEARN=0
SKIP_OBS=0
SKIP_MT=0
ONLY=""
EXPECT_ONLY=0
for arg in "$@"; do
  if [[ "$EXPECT_ONLY" -eq 1 ]]; then
    ONLY="$arg"
    EXPECT_ONLY=0
    continue
  fi
  case "$arg" in
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-chaos) SKIP_CHAOS=1 ;;
    --skip-trace) SKIP_TRACE=1 ;;
    --skip-serve) SKIP_SERVE=1 ;;
    --skip-serve-chaos) SKIP_SERVE_CHAOS=1 ;;
    --skip-learn) SKIP_LEARN=1 ;;
    --skip-obs) SKIP_OBS=1 ;;
    --skip-mt) SKIP_MT=1 ;;
    --only) EXPECT_ONLY=1 ;;
    --only=*) ONLY="${arg#--only=}" ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done
if [[ "$EXPECT_ONLY" -eq 1 ]]; then
  echo "--only requires a gate name" >&2; exit 2
fi
case "$ONLY" in
  ""|tier1|trace|asan|tsan|serve|chaos|serve-chaos|learn|obs|mt) ;;
  *) echo "unknown gate for --only: $ONLY" >&2; exit 2 ;;
esac

# True when the named gate should run: either it was picked with --only, or
# no --only was given and its --skip flag is unset ($2).
gate_enabled() {
  if [[ -n "$ONLY" ]]; then [[ "$ONLY" == "$1" ]]; else [[ "$2" -eq 0 ]]; fi
}

echo "== tier 1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
if gate_enabled tier1 0; then
  echo "== tier 1: ctest =="
  ctest --test-dir build -L tier1 --output-on-failure -j "$JOBS"
fi

if gate_enabled trace "$SKIP_TRACE"; then
  echo "== observability suite (ctest -L trace) =="
  ctest --test-dir build -L trace --output-on-failure -j "$JOBS"
fi

if gate_enabled asan "$SKIP_ASAN"; then
  echo "== tier 1 under ASan+UBSan =="
  cmake -B build-asan -S . -DACTIVEDP_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan -L tier1 --output-on-failure -j "$JOBS"
fi

if gate_enabled tsan "$SKIP_TSAN"; then
  echo "== experiment + parallel-stage + observability tests under TSan =="
  cmake -B build-tsan -S . -DACTIVEDP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target experiment_test determinism_test trace_test util_metrics_test \
             logging_test retry_test serve_test snapshot_test registry_test \
             rollout_test shard_router_test event_log_test retrainer_test \
             obs_test label_model_test sparse_kernels_test label_matrix_test \
             activedp_incremental_test
  ctest --test-dir build-tsan --output-on-failure \
    -R "experiment_test|determinism_test|trace_test|util_metrics_test|logging_test|retry_test|serve_test|snapshot_test|registry_test|rollout_test|shard_router_test|event_log_test|retrainer_test|obs_test|label_model_test|sparse_kernels_test|label_matrix_test|activedp_incremental_test"
fi

if gate_enabled serve "$SKIP_SERVE"; then
  echo "== serving suite (ctest -L serve) =="
  ctest --test-dir build -L serve --output-on-failure
fi

# Archives one chaos_matrix report ($1 = report stem under build/bench) and
# prints the keys named by the extended regex $2.
archive_chaos_report() {
  local json="build/bench/$1.json"
  if [[ -f "$json" ]]; then
    mkdir -p bench-archive
    local stamp
    stamp="$(date +%Y%m%d-%H%M%S)"
    cp "$json" "bench-archive/$1-$stamp.json"
    echo "archived bench-archive/$1-$stamp.json"
    grep -oE "$2" "$json" | sed 's/^/  /' || true
  else
    echo "note: $json not found; skipping archive" >&2
  fi
}

if gate_enabled chaos "$SKIP_CHAOS"; then
  echo "== pipeline chaos matrix =="
  (cd build/bench && ./chaos_matrix --matrix=pipeline \
    --out=BENCH_chaos_pipeline.json)
  archive_chaos_report BENCH_chaos_pipeline \
    '"scenarios": [0-9]+|"failures": [0-9]+'
fi

if gate_enabled serve-chaos "$SKIP_SERVE_CHAOS"; then
  echo "== serving chaos gate (serve.* fault matrix) =="
  (cd build/bench && ./chaos_matrix --matrix=serve \
    --out=BENCH_serve_chaos.json)
  archive_chaos_report BENCH_serve_chaos \
    '"scenarios": [0-9]+|"failures": [0-9]+|"rollback_instants": [0-9]+'
fi

if gate_enabled learn "$SKIP_LEARN"; then
  echo "== continuous-learning gate (LearnGuard fault matrix + clean waves) =="
  (cd build/bench && ./chaos_matrix --matrix=learn \
    --out=BENCH_learn_chaos.json)
  archive_chaos_report BENCH_learn_chaos \
    '"scenarios": [0-9]+|"failures": [0-9]+|"quarantine_instants": [0-9]+|"retrain_published": [0-9]+'
fi

if gate_enabled obs "$SKIP_OBS"; then
  echo "== OpsPlane gate (incident dumps + SLOs) =="
  ctest --test-dir build -L obs --output-on-failure -j "$JOBS"

  # The runner checks each cell's incident dumps against its matrix's policy
  # (exactly one verified dump per breaker-trip / rollback trigger, verified
  # dumps only in learn cells, zero everywhere else, including the clean-load
  # drill, which must also meet every serving SLO) and exits nonzero on any
  # violation.
  (cd build/bench && ./chaos_matrix --matrix=serve \
    --out=BENCH_serve_chaos_obs.json)
  (cd build/bench && ./chaos_matrix --matrix=learn \
    --out=BENCH_learn_chaos_obs.json)
  grep -oE '"incident_dumps": [0-9]+' \
    build/bench/BENCH_serve_chaos_obs.json \
    build/bench/BENCH_learn_chaos_obs.json | sed 's/^/  /' || true
fi

if gate_enabled mt "$SKIP_MT"; then
  echo "== TenantMesh gate (router tests) =="
  ctest --test-dir build -R shard_router_test --output-on-failure
fi

echo "verify: all gates passed"
