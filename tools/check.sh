#!/usr/bin/env bash
# tools/check.sh — the full pre-merge gate.
#
# Static analysis runs first: the lints need only the two analyzer
# binaries, so a discipline violation is reported in seconds, before any
# full tree compiles.
#
# Stages:
#   1. darl_lint     project-specific per-line static analysis over src/
#                    tools/ bench/ tests/ examples/ (zero unsuppressed
#                    findings; suppressions live in tools/darl_lint.supp)
#   2. darl_verify   cross-file concurrency-discipline analysis: guarded
#                    fields, the global lock-order graph, blocking calls
#                    under locks, cv-wait predicates, atomic orderings
#                    (suppressions in tools/darl_verify.supp)
#   3. build/        Release-style tree, full ctest suite
#   4. build-noavx/  darl_linalg, darl_nn and darl's elementary functions
#                    without -mavx (DARL_LINALG_AVX=OFF), benches and
#                    examples off: builds and runs test_elementary,
#                    test_linalg, test_nn_batch, test_rl and the pinned
#                    TrainResult digests of test_frameworks, so the
#                    portable 4-wide gemm instantiation, the SSE2
#                    elementwise passes, the SSE2 tanh row and Adam keep
#                    their bits in the one configuration no other tree
#                    compiles
#   5. clang-tidy    optional second opinion (no-ops when absent);
#                    thread-safety + concurrency findings are errors
#   6. build-ubsan/  UndefinedBehaviorSanitizer tree (DARL_SANITIZE=
#                    undefined, non-recovering), full ctest suite
#   7. build-asan/   Address+UB sanitizer tree (DARL_SANITIZE=
#                    address,undefined) with leak detection on: heap
#                    misuse and leaks in the serve/obs teardown paths
#                    show up here
#   8. build-tsan/   ThreadSanitizer tree (DARL_SANITIZE=thread), which
#                    gives the parallel fault-tolerance tests teeth: data
#                    races in Study::run's threaded evaluate/retry/timeout
#                    paths show up here, not in the plain build
#   9. telemetry smoke: darl_serve started with --obs-port 0, its
#                    /healthz and /metrics scraped live over /dev/tcp,
#                    and the serve metric families asserted present
#  10. fleet smoke:  darl_serve as a 2-shard x 2-tenant fleet under
#                    open-loop overload; the scraped labeled counters
#                    must show low-priority shedding, both tenants
#                    serving, per-shard queue gauges, and no shed
#                    counter on the control lane
#  11. distributed smoke: a darl_worker learner plus two independently
#                    launched darl_worker actor processes train an RLlib
#                    job over a Unix socket; the learner's /metrics must
#                    expose the net_* transport families and a nonzero
#                    net_staleness, both actors must exit 0, and the
#                    learner must report the run complete
#  12. determinism audit: the same seeded campaign run twice serially and
#                    once with --parallel 4 must produce byte-identical
#                    trials CSVs — with the telemetry sampler + exporter
#                    enabled (--obs-port 0), proving neither observability
#                    nor the trial lanes ever perturb campaign results; a
#                    TPE campaign at --parallel 3 must rerun
#                    byte-identically (its tell schedule is fixed per
#                    width); a second campaign whose random draw includes
#                    RLlib nodes=2 trials then reruns with --distributed,
#                    serially and at --parallel 2 (two lanes running their
#                    listeners and actor children at once), and each
#                    multi-process CSV must match the in-process one
#                    byte for byte with nonzero NetStaleness on the engaged
#                    trials; finally Table I is retrained from scratch
#                    (--parallel 4) and must reproduce the committed
#                    darl_table1_cache.csv byte for byte, once as built
#                    and once with glibc's AVX2 and FMA libm variants
#                    masked (GLIBC_TUNABLES), as on a CPU without FMA
#
# A per-stage wall-clock summary prints at the end.
#
# Usage: tools/check.sh [extra ctest args...]
#   e.g. tools/check.sh -R core_fault
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"

# --------------------------------------------------------------------------
# Per-stage timing: stage NAME starts a stage (closing the previous one);
# the summary at the bottom prints every stage with its wall-clock cost.
STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_T0=0
stage_end() {
  [[ -n "$CURRENT_STAGE" ]] || return 0
  STAGE_NAMES+=("$CURRENT_STAGE")
  STAGE_SECS+=($(( $(date +%s) - STAGE_T0 )))
  CURRENT_STAGE=""
}
stage() {
  stage_end
  CURRENT_STAGE="$1"
  STAGE_T0="$(date +%s)"
  echo "=== $1 ==="
}

run_tree() {
  local dir="$1" sanitize="$2"
  shift 2
  echo "--- [$dir] configure (DARL_SANITIZE='$sanitize') ---"
  cmake -B "$dir" -S . -DDARL_SANITIZE="$sanitize"
  echo "--- [$dir] build ---"
  cmake --build "$dir" -j "$JOBS"
  echo "--- [$dir] ctest ---"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" "$@"
}

# --------------------------------------------------------------------------
# Static analysis first: configure the plain tree and build just the two
# analyzer binaries (stdlib-only, seconds) so lint findings arrive before
# any full build is paid for.
stage "darl_lint (per-line static analysis)"
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS" --target darl_lint darl_verify
./build/tools/darl_lint --root .

stage "darl_verify (concurrency discipline)"
./build/tools/darl_verify --root .

stage "build/ (plain tree + ctest)"
run_tree build "" "$@"

stage "build-noavx/ (portable gemm, learner passes and tanh row, DARL_LINALG_AVX=OFF)"
cmake -B build-noavx -S . -DDARL_LINALG_AVX=OFF -DDARL_BUILD_BENCHMARKS=OFF \
    -DDARL_BUILD_EXAMPLES=OFF > /dev/null
cmake --build build-noavx -j "$JOBS" \
    --target test_elementary test_linalg test_nn_batch test_rl test_frameworks
./build-noavx/tests/test_elementary
./build-noavx/tests/test_linalg
./build-noavx/tests/test_nn_batch
./build-noavx/tests/test_rl
./build-noavx/tests/test_frameworks --gtest_filter='Backends.TrainResultBitsArePinned'

stage "clang-tidy (optional)"
tools/run_clang_tidy.sh build

stage "build-ubsan/ (undefined)"
run_tree build-ubsan undefined "$@"

stage "build-asan/ (address,undefined + leaks)"
ASAN_OPTIONS="detect_leaks=1" run_tree build-asan address,undefined "$@"

stage "build-tsan/ (thread)"
run_tree build-tsan thread "$@"

AUDIT_DIR="$(mktemp -d)"
trap 'rm -rf "$AUDIT_DIR"' EXIT

stage "telemetry smoke (darl_serve --obs-port, live scrape)"
OBS_LOG="$AUDIT_DIR/obs_serve.log"
./build/tools/darl_serve --train-timesteps 512 --clients 2 --requests 50 \
    --obs-port 0 --obs-linger-s 30 > "$OBS_LOG" 2>&1 &
OBS_PID=$!
obs_port=""
for _ in $(seq 1 300); do
  obs_port="$(sed -n \
      's/^obs: exporter listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$OBS_LOG" | head -n 1)"
  [[ -n "$obs_port" ]] && break
  kill -0 "$OBS_PID" 2>/dev/null \
    || { echo "telemetry smoke FAILED: darl_serve exited early"; \
         cat "$OBS_LOG"; exit 1; }
  sleep 0.2
done
[[ -n "$obs_port" ]] \
  || { echo "telemetry smoke FAILED: exporter never announced its port"; \
       cat "$OBS_LOG"; kill "$OBS_PID" 2>/dev/null; exit 1; }
# Scrape once the serving run is over (the linger window) so the serve
# counter families are guaranteed registered and final.
for _ in $(seq 1 600); do
  grep -q '^obs: lingering' "$OBS_LOG" && break
  sleep 0.2
done
scrape() {  # scrape PATH — raw HTTP/1.0 GET over bash /dev/tcp
  local path="$1"
  exec 3<>"/dev/tcp/127.0.0.1/$obs_port"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
  cat <&3
  exec 3<&- 3>&-
}
healthz="$(scrape /healthz)"
grep -q '200 OK' <<<"$healthz" \
  || { echo "telemetry smoke FAILED: /healthz not 200"; \
       echo "$healthz"; kill "$OBS_PID" 2>/dev/null; exit 1; }
metrics="$(scrape /metrics)"
for family in serve_requests serve_served serve_batches serve_queue_depth \
              serve_latency_us serve_batch_rows; do
  grep -q "^$family" <<<"$metrics" \
    || { echo "telemetry smoke FAILED: family '$family' missing from /metrics"; \
         echo "$metrics" | head -n 40; kill "$OBS_PID" 2>/dev/null; exit 1; }
done
kill "$OBS_PID" 2>/dev/null || true
wait "$OBS_PID" 2>/dev/null || true
echo "telemetry smoke ok: port $obs_port, /healthz 200, $(grep -c '^serve_' <<<"$metrics") serve_* series scraped"

stage "fleet smoke (2 shards x 2 tenants, shedding under overload)"
# Open-loop offered load well beyond the fleet's deliberately throttled
# capacity (tiny queues, wide batching window), mixed priorities: the
# labeled shed counters must show low/normal traffic being dropped while
# both tenants keep serving and no control traffic is ever shed.
FLEET_LOG="$AUDIT_DIR/fleet_serve.log"
./build/tools/darl_serve --train-timesteps 512 --clients 16 --requests 200 \
    --tenants 2 --shards 2 --priority mixed --open-loop --rate-per-s 6000 \
    --arrival bursty --max-batch 64 --max-delay-us 5000 --queue-cap 4 \
    --no-gather --obs-port 0 --obs-linger-s 5 > "$FLEET_LOG" 2>&1 &
FLEET_PID=$!
fleet_port=""
for _ in $(seq 1 300); do
  fleet_port="$(sed -n \
      's/^obs: exporter listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$FLEET_LOG" | head -n 1)"
  [[ -n "$fleet_port" ]] && break
  kill -0 "$FLEET_PID" 2>/dev/null \
    || { echo "fleet smoke FAILED: darl_serve exited early"; \
         cat "$FLEET_LOG"; exit 1; }
  sleep 0.2
done
[[ -n "$fleet_port" ]] \
  || { echo "fleet smoke FAILED: exporter never announced its port"; \
       cat "$FLEET_LOG"; kill "$FLEET_PID" 2>/dev/null; exit 1; }
for _ in $(seq 1 600); do
  grep -q '^obs: lingering' "$FLEET_LOG" && break
  sleep 0.2
done
obs_port="$fleet_port"
fleet_metrics="$(scrape /metrics)"
fleet_fail() {
  echo "fleet smoke FAILED: $1"
  echo "$fleet_metrics" | grep '^serve_' | head -n 40
  kill "$FLEET_PID" 2>/dev/null
  exit 1
}
# Per-shard labeled queue gauges exist for every (shard, tenant) pair.
for shard in 0 1; do
  for tenant in t0 t1; do
    grep -q "^serve_queue_depth{shard=\"$shard\",tenant=\"$tenant\"}" \
        <<<"$fleet_metrics" \
      || fleet_fail "queue gauge missing for shard=$shard tenant=$tenant"
  done
done
# Both tenants actually served traffic.
for tenant in t0 t1; do
  served="$(grep "^serve_served{.*tenant=\"$tenant\"}" <<<"$fleet_metrics" \
      | awk '{s += $NF} END {print s+0}')"
  [[ "$served" -gt 0 ]] || fleet_fail "tenant $tenant served nothing"
done
# Overload shed low-priority traffic (counted per tenant and priority)...
shed_total="$(grep '^serve_shed{priority="low"' <<<"$fleet_metrics" \
    | awk '{s += $NF} END {print s+0}')"
[[ "$shed_total" -gt 0 ]] \
  || fleet_fail "no low-priority shedding under 6k/s against a ~3k/s fleet"
# ...but control traffic is never shed: the lane has no shed counter at all.
grep -q '^serve_shed{priority="control"' <<<"$fleet_metrics" \
  && fleet_fail "control lane grew a shed counter"
# Let the short linger expire so the per-shard bitwise self-check prints.
wait "$FLEET_PID" \
  || { echo "fleet smoke FAILED: darl_serve exited nonzero"; \
       cat "$FLEET_LOG"; exit 1; }
grep -q 'self-check: all .* bitwise-identical' "$FLEET_LOG" \
  || fleet_fail "fleet self-check line missing"
echo "fleet smoke ok: port $fleet_port, $shed_total low-priority requests shed, both tenants serving"

stage "distributed smoke (learner + 2 actor processes over a unix socket)"
DIST_LOG="$AUDIT_DIR/dist_learner.log"
DIST_EP="unix:$AUDIT_DIR/dist.sock"
./build/tools/darl_worker --role learner --listen "$DIST_EP" --nodes 3 \
    --cores 2 --timesteps 4096 --seed 7 --spawn-actors 0 \
    --obs-port 0 --obs-linger-s 30 > "$DIST_LOG" 2>&1 &
DIST_PID=$!
# The actors are launched here, not by the learner (--spawn-actors 0):
# this is the stage that proves three genuinely independent processes
# assemble into one training run.
./build/tools/darl_worker --role actor --connect "$DIST_EP" --node 1 \
    > "$AUDIT_DIR/dist_actor1.log" 2>&1 &
DIST_A1_PID=$!
./build/tools/darl_worker --role actor --connect "$DIST_EP" --node 2 \
    > "$AUDIT_DIR/dist_actor2.log" 2>&1 &
DIST_A2_PID=$!
dist_port=""
for _ in $(seq 1 300); do
  dist_port="$(sed -n \
      's/^obs: exporter listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$DIST_LOG" | head -n 1)"
  [[ -n "$dist_port" ]] && break
  kill -0 "$DIST_PID" 2>/dev/null \
    || { echo "distributed smoke FAILED: learner exited early"; \
         cat "$DIST_LOG"; exit 1; }
  sleep 0.2
done
[[ -n "$dist_port" ]] \
  || { echo "distributed smoke FAILED: exporter never announced its port"; \
       cat "$DIST_LOG"; kill "$DIST_PID" 2>/dev/null; exit 1; }
# Both actors must finish cleanly (the learner sends Stop, they ack Bye).
wait "$DIST_A1_PID" \
  || { echo "distributed smoke FAILED: actor 1 exited nonzero"; \
       cat "$AUDIT_DIR/dist_actor1.log"; kill "$DIST_PID" 2>/dev/null; exit 1; }
wait "$DIST_A2_PID" \
  || { echo "distributed smoke FAILED: actor 2 exited nonzero"; \
       cat "$AUDIT_DIR/dist_actor2.log"; kill "$DIST_PID" 2>/dev/null; exit 1; }
# Scrape during the post-run linger window: every counter is final.
for _ in $(seq 1 600); do
  grep -q '^obs: lingering' "$DIST_LOG" && break
  sleep 0.2
done
obs_port="$dist_port"
dist_metrics="$(scrape /metrics)"
dist_fail() {
  echo "distributed smoke FAILED: $1"
  echo "$dist_metrics" | grep '^net_' | head -n 20
  kill "$DIST_PID" 2>/dev/null
  exit 1
}
for family in net_accepts net_frames_sent net_frames_received \
              net_bytes_sent net_bytes_received net_weights_published \
              net_staleness; do
  grep -q "^$family" <<<"$dist_metrics" \
    || dist_fail "family '$family' missing from /metrics"
done
# Remote batches lag the published weights by design, so the mean
# staleness of the final iteration must be strictly positive.
staleness="$(grep '^net_staleness ' <<<"$dist_metrics" | awk '{print $2}')"
awk -v s="$staleness" 'BEGIN { exit !(s > 0) }' \
  || dist_fail "net_staleness not positive (got '$staleness')"
grep -q '^learner: run complete$' "$DIST_LOG" \
  || dist_fail "learner never reported 'run complete'"
grep -q '^actor node 1: served' "$AUDIT_DIR/dist_actor1.log" \
  || dist_fail "actor 1 served nothing"
grep -q '^actor node 2: served' "$AUDIT_DIR/dist_actor2.log" \
  || dist_fail "actor 2 served nothing"
kill "$DIST_PID" 2>/dev/null || true
wait "$DIST_PID" 2>/dev/null || true
echo "distributed smoke ok: port $dist_port, staleness $staleness, both actors served and exited 0"

stage "determinism audit (serial x2, --parallel 4, TPE, --distributed serial and --parallel 2, telemetry on, Table I retrain plain and libm-masked)"
audit_run() {
  local out="$1"
  shift
  ./build/tools/darl_study --explorer random --trials 6 --timesteps 2048 \
      --seeds 1 --seed 7 --cache "" --csv "$out" --obs-port 0 "$@" > /dev/null
}
audit_run "$AUDIT_DIR/serial_a.csv"
audit_run "$AUDIT_DIR/serial_b.csv"
audit_run "$AUDIT_DIR/parallel.csv" --parallel 4
cmp "$AUDIT_DIR/serial_a.csv" "$AUDIT_DIR/serial_b.csv" \
  || { echo "determinism audit FAILED: serial reruns differ"; exit 1; }
cmp "$AUDIT_DIR/serial_a.csv" "$AUDIT_DIR/parallel.csv" \
  || { echo "determinism audit FAILED: parallel run differs from serial"; exit 1; }
# TPE reads its feedback, so its campaign depends on the width; at one
# width the fixed tell schedule must still make reruns byte-identical
# whatever order the lanes finish in.
audit_run "$AUDIT_DIR/tpe_a.csv" --explorer tpe --trials 8 --parallel 3
audit_run "$AUDIT_DIR/tpe_b.csv" --explorer tpe --trials 8 --parallel 3
cmp "$AUDIT_DIR/tpe_a.csv" "$AUDIT_DIR/tpe_b.csv" \
  || { echo "determinism audit FAILED: --explorer tpe --parallel 3 reruns differ"; exit 1; }
# Multi-process leg: seed 1's random draw includes two RLlib nodes=2
# trials (seed 7's has none), so --distributed actually spawns actor
# processes; the campaign CSV must still match the in-process run byte
# for byte, and the engaged trials must report nonzero NetStaleness.
audit_run "$AUDIT_DIR/dist_inproc.csv" --seed 1
audit_run "$AUDIT_DIR/dist_mp.csv" --seed 1 --distributed
cmp "$AUDIT_DIR/dist_inproc.csv" "$AUDIT_DIR/dist_mp.csv" \
  || { echo "determinism audit FAILED: --distributed run differs from in-process"; exit 1; }
# Two lanes at once: each multi-node trial brings up its own listener and
# actor children beside the other lane's, in one darl_study process.
audit_run "$AUDIT_DIR/dist_mp_par.csv" --seed 1 --distributed --parallel 2
cmp "$AUDIT_DIR/dist_inproc.csv" "$AUDIT_DIR/dist_mp_par.csv" \
  || { echo "determinism audit FAILED: --distributed --parallel 2 run differs from in-process"; exit 1; }
grep -q 'framework=RLlib, nodes=[^1]' "$AUDIT_DIR/dist_mp.csv" \
  || { echo "determinism audit FAILED: no multi-node RLlib trial engaged the distributed path"; exit 1; }
grep 'framework=RLlib, nodes=[^1]' "$AUDIT_DIR/dist_mp.csv" \
    | awk -F, '$NF <= 0 { bad = 1 } END { exit bad }' \
  || { echo "determinism audit FAILED: an engaged trial reported zero NetStaleness"; exit 1; }
# The committed campaign is a gate: its header digests the seed and the
# configuration list but not the code, so a change that moved campaign
# numbers without regenerating the cache would leave the benches reading
# stale values. Retraining Table I must reproduce it byte for byte.
./build/tools/darl_study --parallel 4 --cache "$AUDIT_DIR/table1.csv" > /dev/null
cmp "$AUDIT_DIR/table1.csv" darl_table1_cache.csv \
  || { echo "determinism audit FAILED: retrained Table I differs from the committed darl_table1_cache.csv"; exit 1; }
# The same retrain on what a CPU without FMA runs: glibc's AVX2 and FMA
# libm variants masked for this process. darl computes its elementary
# functions itself, so not one byte may move.
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA \
  ./build/tools/darl_study --parallel 4 --cache "$AUDIT_DIR/table1_masked.csv" > /dev/null
cmp "$AUDIT_DIR/table1_masked.csv" darl_table1_cache.csv \
  || { echo "determinism audit FAILED: Table I retrained with glibc's AVX2/FMA variants masked differs from darl_table1_cache.csv"; exit 1; }
echo "determinism audit ok: $(wc -l < "$AUDIT_DIR/serial_a.csv") CSV lines byte-identical across runs (incl. --parallel 4, TPE --parallel 3 and the multi-process --distributed legs, serial and --parallel 2); retrained Table I matches darl_table1_cache.csv, with and without glibc's AVX2/FMA variants"

stage_end
echo "=== stage timing ==="
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %4ds  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
done
echo "=== check.sh: all gates green ==="
