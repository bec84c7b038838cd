#!/usr/bin/env bash
# Smoke test for cmd/gbbs-serve: boot the daemon, probe /healthz, run one
# declarative request twice, and assert the second is served from the
# deterministic result cache (observable through the response's
# result_cache field and the /v1/cache counters), with bad parameters
# rejected as 400; then exercise the async job API (submit, duplicate-join,
# poll, result, cancel, resubmit after cancel) and a cross-tenant fairness
# spot check; finally SIGKILL the daemon and restart it over the same
# -data-dir, asserting the stored graph recovers to its pre-crash version and
# answer. All waits are retry-with-deadline, never fixed sleeps. Used by
# `make smoke-serve` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:18099}"
TMPDIR_SMOKE="$(mktemp -d)"
BIN="$TMPDIR_SMOKE/gbbs-serve"
LOG="$TMPDIR_SMOKE/serve.log"

cleanup() {
    if [[ -n "${SERVER_PID:-}" ]]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMPDIR_SMOKE"
}
trap cleanup EXIT

fail() {
    echo "smoke-serve: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

# retry_until DEADLINE_SECONDS DESCRIPTION CMD...: poll CMD every 100ms
# until it succeeds or the deadline passes. Deadline-based (not a fixed
# iteration count at a fixed sleep) so slow CI machines don't flake.
retry_until() {
    local deadline_s="$1" what="$2"
    shift 2
    local end=$((SECONDS + deadline_s))
    while ! "$@" >/dev/null 2>&1; do
        if ((SECONDS >= end)); then
            fail "timed out after ${deadline_s}s waiting for: $what"
        fi
        if [[ -n "${SERVER_PID:-}" ]]; then
            kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited while waiting for: $what"
        fi
        sleep 0.1
    done
}

# job_in_state ID STATE: does GET /v1/jobs/ID currently report STATE?
job_in_state() {
    curl -sf "http://$ADDR/v1/jobs/$1" | grep -q "\"state\": *\"$2\""
}

go build -o "$BIN" ./cmd/gbbs-serve

DATA_DIR="$TMPDIR_SMOKE/data"
SERVE_FLAGS=(-addr "$ADDR" -threads 4 -cache-mb 256 -timeout 60s
    -tenant-weights 'gold=3,bronze=1' -job-ttl 10m -data-dir "$DATA_DIR")

"$BIN" "${SERVE_FLAGS[@]}" >"$LOG" 2>&1 &
SERVER_PID=$!

# Wait for the listener.
retry_until 10 "the listener" curl -sf "http://$ADDR/healthz"

HEALTH=$(curl -sf "http://$ADDR/healthz") || fail "healthz unreachable"
echo "$HEALTH" | grep -q '"status": *"ok"' || fail "healthz not ok: $HEALTH"

BODY='{"source":"rmat:14","transforms":["symmetrize"],"algorithm":"bfs","threads":2,"timeout_ms":30000}'

FIRST=$(curl -sf -X POST "http://$ADDR/v1/run" -d "$BODY") || fail "first /v1/run failed"
echo "$FIRST" | grep -q '"summary"' || fail "first run has no summary: $FIRST"
echo "$FIRST" | grep -q '"cache": *"miss"' || fail "first run should be a graph-cache miss: $FIRST"
echo "$FIRST" | grep -q '"result_cache": *"miss"' || fail "first run should be a result-cache miss: $FIRST"

# The identical request is answered from the result cache: no build, no
# execution.
SECOND=$(curl -sf -X POST "http://$ADDR/v1/run" -d "$BODY") || fail "second /v1/run failed"
echo "$SECOND" | grep -q '"result_cache": *"hit"' || fail "second identical run should hit the result cache: $SECOND"
echo "$SECOND" | grep -q '"cache": *"hit"' || fail "second identical run should not rebuild: $SECOND"

CACHE=$(curl -sf "http://$ADDR/v1/cache") || fail "/v1/cache failed"
GRAPH_SECTION=$(echo "$CACHE" | sed -n '/"graph":/,/"results":/p')
RESULT_SECTION=$(echo "$CACHE" | sed -n '/"results":/,$p')
echo "$GRAPH_SECTION" | grep -q '"misses": *1' || fail "graph cache should record 1 miss: $CACHE"
echo "$RESULT_SECTION" | grep -q '"misses": *1' || fail "result cache should record 1 miss: $CACHE"
echo "$RESULT_SECTION" | grep -q '"hits": *1' || fail "result cache should record 1 hit: $CACHE"

# Schema validation: an unknown parameter is rejected before any work.
BAD_STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/run" \
    -d '{"source":"rmat:14","transforms":["symmetrize"],"algorithm":"bfs","opts":{"bogus":1}}')
[[ "$BAD_STATUS" == "400" ]] || fail "unknown parameter returned $BAD_STATUS, want 400"

ALGOS=$(curl -sf "http://$ADDR/v1/algorithms") || fail "/v1/algorithms failed"
echo "$ALGOS" | grep -q '"name": *"bfs"' || fail "algorithm listing is missing bfs: $ALGOS"
echo "$ALGOS" | grep -q '"name": *"beta"' || fail "algorithm listing is missing parameter schemas: $ALGOS"

# Versioned graph store: create a deterministic graph, run against it by
# name, POST an edge batch (version bump), and assert the rerun is a
# result-cache miss whose fingerprint embeds the new version — an update can
# never serve a stale cached result.
CREATE_STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X PUT "http://$ADDR/v1/graphs/smoke" \
    -d '{"source":"grid:64","transforms":["symmetrize"]}')
[[ "$CREATE_STATUS" == "201" ]] || fail "graph create returned $CREATE_STATUS, want 201"

GRAPHS=$(curl -sf "http://$ADDR/v1/graphs") || fail "/v1/graphs failed"
echo "$GRAPHS" | grep -q '"name": *"smoke"' || fail "graph listing is missing smoke: $GRAPHS"
echo "$GRAPHS" | grep -q '"version": *1' || fail "fresh graph should be at version 1: $GRAPHS"

STORE_BODY='{"graph":"smoke","algorithm":"cc","timeout_ms":30000}'
STORE_FIRST=$(curl -sf -X POST "http://$ADDR/v1/run" -d "$STORE_BODY") || fail "stored-graph run failed"
echo "$STORE_FIRST" | grep -q 'store(name=smoke,version=1)' || fail "fingerprint missing snapshot ID: $STORE_FIRST"
STORE_SECOND=$(curl -sf -X POST "http://$ADDR/v1/run" -d "$STORE_BODY") || fail "stored-graph rerun failed"
echo "$STORE_SECOND" | grep -q '"result_cache": *"hit"' || fail "identical stored-graph rerun should hit: $STORE_SECOND"

EDGES=$(curl -sf -X POST "http://$ADDR/v1/graphs/smoke/edges" -d '{"edges":[[0,4000]]}') || fail "edge batch failed"
echo "$EDGES" | grep -q '"version": *2' || fail "edge batch should bump to version 2: $EDGES"
echo "$EDGES" | grep -q '"added": *2' || fail "symmetric insert should add 2 directed edges: $EDGES"

STORE_AFTER=$(curl -sf -X POST "http://$ADDR/v1/run" -d "$STORE_BODY") || fail "post-update run failed"
echo "$STORE_AFTER" | grep -q '"result_cache": *"miss"' || fail "run after edge update must be a result-cache miss: $STORE_AFTER"
echo "$STORE_AFTER" | grep -q 'store(name=smoke,version=2)' || fail "post-update fingerprint missing version 2: $STORE_AFTER"

# Async jobs: submit a long run, observe it through the job API, and join a
# duplicate submission to the same job ID.
JOB_BODY='{"source":"rmat:16","transforms":["symmetrize"],"algorithm":"bicc","threads":2,"timeout_ms":60000,"tenant":"gold"}'
SUBMIT=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$JOB_BODY") || fail "job submit failed"
JOB_ID=$(echo "$SUBMIT" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"\(j-[0-9]*\)"/\1/')
[[ "$JOB_ID" == j-* ]] || fail "job submit returned no ID: $SUBMIT"

DUP=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$JOB_BODY") || fail "duplicate submit failed"
echo "$DUP" | grep -q "\"id\": *\"$JOB_ID\"" || fail "duplicate submission should join $JOB_ID: $DUP"

retry_until 60 "job $JOB_ID to finish" job_in_state "$JOB_ID" done
JOB_RESULT=$(curl -sf "http://$ADDR/v1/jobs/$JOB_ID/result") || fail "job result fetch failed"
echo "$JOB_RESULT" | grep -q '"summary"' || fail "job result has no summary: $JOB_RESULT"

# The completed job fed the result cache: the identical synchronous request
# must hit without executing.
JOB_SYNC=$(curl -sf -X POST "http://$ADDR/v1/run" -d "$JOB_BODY") || fail "sync rerun of job request failed"
echo "$JOB_SYNC" | grep -q '"result_cache": *"hit"' || fail "sync rerun after job should hit the result cache: $JOB_SYNC"

# Canceling a job: submit a fresh long run and DELETE it; the job must land
# in failed with a cancellation error.
CANCEL_BODY='{"source":"rmat:17","transforms":["symmetrize"],"algorithm":"bicc","threads":2,"timeout_ms":60000,"tenant":"bronze"}'
CANCEL_SUBMIT=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$CANCEL_BODY") || fail "cancel-target submit failed"
CANCEL_ID=$(echo "$CANCEL_SUBMIT" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"\(j-[0-9]*\)"/\1/')
curl -sf -X DELETE "http://$ADDR/v1/jobs/$CANCEL_ID" >/dev/null || fail "job cancel failed"
retry_until 15 "job $CANCEL_ID to be canceled" job_in_state "$CANCEL_ID" failed
curl -sf "http://$ADDR/v1/jobs/$CANCEL_ID" | grep -q 'canceled' || fail "canceled job should report a cancellation error"

# A failed job releases its fingerprint: resubmitting the canceled request
# starts a new job rather than handing back the dead one. Cancel it too.
RESUBMIT=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$CANCEL_BODY") || fail "resubmit after cancel failed"
RESUBMIT_ID=$(echo "$RESUBMIT" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"\(j-[0-9]*\)"/\1/')
[[ "$RESUBMIT_ID" == j-* && "$RESUBMIT_ID" != "$CANCEL_ID" ]] \
    || fail "resubmitting a canceled request should start a new job, not $CANCEL_ID: $RESUBMIT"
curl -sf -X DELETE "http://$ADDR/v1/jobs/$RESUBMIT_ID" >/dev/null || fail "resubmitted job cancel failed"

# Cross-tenant fairness spot check: both tenants ran, and the configured
# weights are live in the limiter (gold=3 surfaces in /healthz once gold
# holds queued or admitted work; here we assert the weight config parsed by
# checking the jobs both tenants submitted are attributed to them).
JOBS_GOLD=$(curl -sf "http://$ADDR/v1/jobs?tenant=gold") || fail "job list failed"
echo "$JOBS_GOLD" | grep -q "\"id\": *\"$JOB_ID\"" || fail "gold's job missing from its tenant listing: $JOBS_GOLD"
if echo "$JOBS_GOLD" | grep -q "\"id\": *\"$CANCEL_ID\""; then
    fail "bronze's job leaked into gold's listing: $JOBS_GOLD"
fi
HEALTH_JOBS=$(curl -sf "http://$ADDR/healthz") || fail "healthz after jobs failed"
echo "$HEALTH_JOBS" | grep -q '"submitted": *3' || fail "healthz should count 3 submissions: $HEALTH_JOBS"
echo "$HEALTH_JOBS" | grep -q '"joined": *1' || fail "healthz should count 1 join: $HEALTH_JOBS"

# Crash safety: SIGKILL the daemon (no graceful shutdown, no final flush)
# and restart it over the same data directory. The stored graph must
# recover to its pre-crash version with an identical fingerprint — the
# rerun is a result-cache miss (caches are process-local) that recomputes
# the exact pre-crash answer.
STORE_KEY=$(echo "$STORE_AFTER" | grep -o '"key": *"[^"]*"')
STORE_SUMMARY=$(echo "$STORE_AFTER" | grep -o '"summary": *"[^"]*"')
[[ -n "$STORE_KEY" && -n "$STORE_SUMMARY" ]] || fail "pre-crash run carries no key/summary: $STORE_AFTER"

kill -9 "$SERVER_PID" 2>/dev/null || fail "SIGKILL failed"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

"$BIN" "${SERVE_FLAGS[@]}" >>"$LOG" 2>&1 &
SERVER_PID=$!
retry_until 10 "the restarted listener" curl -sf "http://$ADDR/healthz"

HEALTH_RESTART=$(curl -sf "http://$ADDR/healthz") || fail "healthz after restart failed"
echo "$HEALTH_RESTART" | grep -q '"persistent": *true' || fail "restarted healthz should report persistence: $HEALTH_RESTART"
echo "$HEALTH_RESTART" | grep -q '"durable_version": *2' || fail "smoke graph should be durable at version 2: $HEALTH_RESTART"

GRAPHS_RESTART=$(curl -sf "http://$ADDR/v1/graphs") || fail "/v1/graphs after restart failed"
echo "$GRAPHS_RESTART" | grep -q '"name": *"smoke"' || fail "recovered listing is missing smoke: $GRAPHS_RESTART"
echo "$GRAPHS_RESTART" | grep -q '"version": *2' || fail "smoke should recover at version 2: $GRAPHS_RESTART"

STORE_RECOVERED=$(curl -sf -X POST "http://$ADDR/v1/run" -d "$STORE_BODY") || fail "post-restart run failed"
echo "$STORE_RECOVERED" | grep -q '"result_cache": *"miss"' || fail "post-restart run should miss the fresh cache: $STORE_RECOVERED"
echo "$STORE_RECOVERED" | grep -qF "$STORE_KEY" || fail "post-restart fingerprint differs: want $STORE_KEY in $STORE_RECOVERED"
echo "$STORE_RECOVERED" | grep -qF "$STORE_SUMMARY" || fail "post-restart answer differs: want $STORE_SUMMARY in $STORE_RECOVERED"

echo "smoke-serve: OK ($(echo "$FIRST" | grep -o '"summary": *"[^"]*"'))"
