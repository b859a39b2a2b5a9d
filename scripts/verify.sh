#!/usr/bin/env bash
# Full verification gate for a PR:
#   1. tier-1 build + ctest (the suite every PR must keep green)
#   2. the observability suite (ctest -L trace: tracer, metrics, log sink)
#   3. the same suite under the ASan+UBSan preset
#   4. the thread-pool, parallel-stage and observability tests under TSan
#      (-DACTIVEDP_SANITIZE=thread), which is what certifies the
#      batch-scoped pool, the chunked reductions, the label matrix's lazily
#      built row view and pair-moment store (read by parallel label-model
#      fits), and the tracer / metrics / retry-log write paths race-free
#   5. the serving suite (ctest -L serve: snapshot export/IO round-trips,
#      the batched prediction service, and the serve_bench smoke run, whose
#      determinism gate asserts served == offline bitwise across batch
#      sizes, thread counts and a mid-load hot swap; BENCH_serving.json is
#      archived to bench-archive/)
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
#      once the fault clears; then bench/continuous_bench: live traffic + drifting
#      feedback with >= 3 published retrains, each strictly improving
#      holdout accuracy, zero failed client requests and zero served-digest
#      divergence; BENCH_learn_chaos.json and BENCH_online.json are
#      archived to bench-archive/)
#   9. the OpsPlane gate (ctest -L obs: flight-recorder ring/dump/verify and
#      SLO burn-rate engine tests; then the serve and learn chaos matrices,
#      whose per-cell incident checks require exactly one verified,
#      checksummed dump per breaker-trip/rollback trigger, only verified
#      dumps in learn cells, and zero dumps everywhere else; then a clean
#      serve_bench run that must produce zero dumps with every SLO met — its
#      SLO status JSON and Prometheus exposition are archived to
#      bench-archive/)
#  10. the TenantMesh gate (tests/shard_router_test: consistent-hash
#      stability, tenant isolation under one-tenant overload, per-tenant
#      rollout promote/rollback; then the serve_mt_storm smoke run: the
#      open-loop multi-tenant storm with its per-tenant served==offline
#      digest gates, thread-count-independence sweep, isolation and
#      mid-storm rollout assertions; BENCH_serving_mt.json is archived to
#      bench-archive/)
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
  echo "== thread-pool + parallel-stage + observability tests under TSan =="
  cmake -B build-tsan -S . -DACTIVEDP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target thread_pool_test determinism_test trace_test util_metrics_test \
             logging_test retry_test serve_test snapshot_test registry_test \
             rollout_test shard_router_test event_log_test retrainer_test \
             obs_test label_model_test sparse_kernels_test label_matrix_test \
             activedp_incremental_test
  ctest --test-dir build-tsan --output-on-failure \
    -R "thread_pool_test|determinism_test|trace_test|util_metrics_test|logging_test|retry_test|serve_test|snapshot_test|registry_test|rollout_test|shard_router_test|event_log_test|retrainer_test|obs_test|label_model_test|sparse_kernels_test|label_matrix_test|activedp_incremental_test"
fi

if gate_enabled serve "$SKIP_SERVE"; then
  echo "== serving suite (ctest -L serve, incl. serve_bench smoke) =="
  ctest --test-dir build -L serve --output-on-failure
  SERVE_JSON="build/bench/BENCH_serving.json"
  if [[ -f "$SERVE_JSON" ]]; then
    mkdir -p bench-archive
    STAMP="$(date +%Y%m%d-%H%M%S)"
    cp "$SERVE_JSON" "bench-archive/BENCH_serving-$STAMP.json"
    echo "archived bench-archive/BENCH_serving-$STAMP.json"
    grep -oE '"throughput_rps": [0-9.eE+-]+|"p99_ms": [0-9.eE+-]+' \
      "$SERVE_JSON" | sed 's/^/  /' || true
  else
    echo "note: $SERVE_JSON not found; skipping archive" >&2
  fi
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
  echo "== continuous-learning gate (LearnGuard fault matrix + live loop) =="
  (cd build/bench && ./chaos_matrix --matrix=learn \
    --out=BENCH_learn_chaos.json)
  (cd build/bench && ./continuous_bench --waves=8 --steps=4 \
    --min-publishes=3 --out=BENCH_online.json)
  mkdir -p bench-archive
  STAMP="$(date +%Y%m%d-%H%M%S)"
  for report in BENCH_learn_chaos BENCH_online; do
    if [[ -f "build/bench/$report.json" ]]; then
      cp "build/bench/$report.json" "bench-archive/$report-$STAMP.json"
      echo "archived bench-archive/$report-$STAMP.json"
    else
      echo "note: build/bench/$report.json not found; skipping archive" >&2
    fi
  done
  grep -oE '"scenarios": [0-9]+|"failures": [0-9]+|"quarantine_instants": [0-9]+' \
    build/bench/BENCH_learn_chaos.json | sed 's/^/  /' || true
  grep -oE '"published": [0-9]+|"base_accuracy": [0-9.]+|"final_accuracy": [0-9.]+|"client_failures": [0-9]+' \
    build/bench/BENCH_online.json | sed 's/^/  /' || true
fi

if gate_enabled obs "$SKIP_OBS"; then
  echo "== OpsPlane gate (incident dumps + SLO status) =="
  ctest --test-dir build -L obs --output-on-failure -j "$JOBS"

  # Chaos halves: the runner checks each cell's incident dumps against its
  # matrix's policy (exactly one verified dump per breaker-trip / rollback
  # trigger, verified dumps only in learn cells, zero everywhere else) and
  # exits nonzero on any violation.
  (cd build/bench && ./chaos_matrix --matrix=serve \
    --out=BENCH_serve_chaos_obs.json)
  (cd build/bench && ./chaos_matrix --matrix=learn \
    --out=BENCH_learn_chaos_obs.json)

  # Clean half: a fault-free serve_bench run must end with an empty incident
  # root and every SLO met (the bench exits nonzero otherwise); re-assert
  # both from the report here and archive the SLO status + Prometheus text.
  (cd build/bench && ./serve_bench --requests=400 --clients=4 --rate=2000 \
    --steps=10 --out=BENCH_serving_obs.json)
  OBS_JSON="build/bench/BENCH_serving_obs.json"
  if ! grep -q '"incidents": 0' "$OBS_JSON"; then
    echo "FAIL: clean serve_bench run reported incident dumps" >&2
    exit 1
  fi
  if ! grep -q '"slos_met": true' "$OBS_JSON"; then
    echo "FAIL: clean serve_bench run breached an SLO" >&2
    exit 1
  fi
  mkdir -p bench-archive
  STAMP="$(date +%Y%m%d-%H%M%S)"
  for artifact in BENCH_serving.slo.json BENCH_serving.prom; do
    if [[ -f "build/bench/bench-archive/$artifact" ]]; then
      cp "build/bench/bench-archive/$artifact" \
         "bench-archive/${artifact%%.*}-$STAMP.${artifact#*.}"
      echo "archived bench-archive/${artifact%%.*}-$STAMP.${artifact#*.}"
    fi
  done
  grep -oE '"incident_dumps": [0-9]+' \
    build/bench/BENCH_serve_chaos_obs.json \
    build/bench/BENCH_learn_chaos_obs.json | sed 's/^/  /' || true
  grep -oE '"all_met": (true|false)' \
    build/bench/bench-archive/BENCH_serving.slo.json | sed 's/^/  /' || true
fi

if gate_enabled mt "$SKIP_MT"; then
  echo "== TenantMesh gate (router tests + multi-tenant storm) =="
  ctest --test-dir build -R "shard_router_test|serve_mt_storm" \
    --output-on-failure
  MT_JSON="build/bench/BENCH_serving_mt.json"
  if [[ -f "$MT_JSON" ]]; then
    mkdir -p bench-archive
    STAMP="$(date +%Y%m%d-%H%M%S)"
    cp "$MT_JSON" "bench-archive/BENCH_serving_mt-$STAMP.json"
    echo "archived bench-archive/BENCH_serving_mt-$STAMP.json"
    grep -oE '"thread_independent": (true|false)|"incidents": [0-9]+|"shed": [0-9]+|"passed": (true|false)' \
      "$MT_JSON" | sed 's/^/  /' || true
  else
    echo "note: $MT_JSON not found; skipping archive" >&2
  fi
fi

echo "verify: all gates passed"
