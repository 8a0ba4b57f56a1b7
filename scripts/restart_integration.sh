#!/usr/bin/env bash
# Durability integration check: start jitd with a TMPDIR-backed -data-dir,
# create a session, SIGTERM the daemon, relaunch it over the same data dir,
# and assert the old session ID answers the canned questions from disk —
# identically, and without a second POST /api/sessions (i.e. without
# re-running candidate generation).
set -euo pipefail

ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
WORK="${TMPDIR:-/tmp}/jitd-restart-it.$$"
DATA_DIR="$WORK/data"
BIN="$WORK/jitd"
LOG="$WORK/jitd.log"
PID=""

mkdir -p "$DATA_DIR"
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; echo "--- jitd log ---" >&2; cat "$LOG" >&2 || true; exit 1; }

start_jitd() {
  # Small training corpus: the point is the restart path, not model quality.
  # Paged storage on (-buffer-pool-pages): restarts must also recover the
  # per-session page files, not just the snapshot.
  "$BIN" -addr "$ADDR" -data-dir "$DATA_DIR" \
    -buffer-pool-pages 256 \
    -eras 4 -rows 300 -horizon 2 -k 5 >>"$LOG" 2>&1 &
  PID=$!
  for _ in $(seq 1 120); do
    if curl -sf "$BASE/api/questions" >/dev/null 2>&1; then return 0; fi
    kill -0 "$PID" 2>/dev/null || fail "jitd exited during startup"
    sleep 0.5
  done
  fail "jitd did not become ready"
}

stop_jitd() {
  kill -TERM "$PID"
  for _ in $(seq 1 60); do
    kill -0 "$PID" 2>/dev/null || { PID=""; return 0; }
    sleep 0.5
  done
  fail "jitd did not exit on SIGTERM"
}

ask() { # ask <session-id> <kind>
  curl -sf -X POST "$BASE/api/sessions/$1/ask" \
    -H 'Content-Type: application/json' \
    -d "{\"kind\": \"$2\", \"feature\": \"income\", \"alpha\": 0.7}"
}

echo "== building jitd =="
go build -o "$BIN" ./cmd/jitd

echo "== first run: create a session =="
start_jitd
PROFILE='{"profile": {"age": 29, "household": 1, "income": 48000, "debt": 1900, "seniority": 4, "amount": 30000}}'
CREATE=$(curl -sf -X POST "$BASE/api/sessions" -H 'Content-Type: application/json' -d "$PROFILE") \
  || fail "session creation failed"
SID=$(printf '%s' "$CREATE" | sed -n 's/.*"id":"\(s-[0-9a-f]*\)".*/\1/p')
[ -n "$SID" ] || fail "no session id in create response: $CREATE"
echo "   session: $SID"

PRE_ANSWERS="$WORK/pre.txt"
POST_ANSWERS="$WORK/post.txt"
for kind in no-modification minimal-features-set minimal-overall-modification turning-point; do
  ask "$SID" "$kind" >>"$PRE_ANSWERS" || fail "pre-restart ask $kind failed"
  echo >>"$PRE_ANSWERS"
done
curl -sf -X POST "$BASE/api/sessions/$SID/sql" -H 'Content-Type: application/json' \
  -d '{"query": "SELECT * FROM candidates ORDER BY time, diff, gap, p"}' >"$WORK/pre_rows.json" \
  || fail "pre-restart candidates dump failed"

echo "== scrape /metrics before shutdown =="
curl -sf "$BASE/metrics" >"$WORK/metrics_pre.txt" || fail "pre-shutdown /metrics scrape failed"
grep -q '^jitd_sessions_live 1$' "$WORK/metrics_pre.txt" \
  || fail "pre-shutdown /metrics does not report the live session"
ASK_COUNT=$(sed -n 's/^jitd_http_request_duration_seconds_count{route="\/api\/sessions\/{id}\/ask"} \([0-9]*\)$/\1/p' "$WORK/metrics_pre.txt")
[ "${ASK_COUNT:-0}" = "4" ] || fail "expected 4 observed ask requests in /metrics, saw '${ASK_COUNT:-}'"
# Assert the exposition families are present rather than particular counts.
grep -q '^jitd_pool_fault_duration_seconds_bucket{le="+Inf"}' "$WORK/metrics_pre.txt" \
  || fail "pre-shutdown /metrics is missing the pool fault histogram"
grep -q '^jitd_plan_shapes_total{shape=' "$WORK/metrics_pre.txt" \
  || fail "pre-shutdown /metrics is missing plan-shape counters"

echo "== SIGTERM (close live sessions) =="
stop_jitd
grep -q 'msg="closed live sessions" sessions=1' "$LOG" \
  || fail "shutdown did not close the live session"

echo "== second run: same -data-dir, same session id =="
start_jitd
for kind in no-modification minimal-features-set minimal-overall-modification turning-point; do
  ask "$SID" "$kind" >>"$POST_ANSWERS" || fail "post-restart ask $kind failed (session lost across restart)"
  echo >>"$POST_ANSWERS"
done
curl -sf -X POST "$BASE/api/sessions/$SID/sql" -H 'Content-Type: application/json' \
  -d '{"query": "SELECT * FROM candidates ORDER BY time, diff, gap, p"}' >"$WORK/post_rows.json" \
  || fail "post-restart candidates dump failed"

diff -u "$PRE_ANSWERS" "$POST_ANSWERS" || fail "canned answers drifted across restart"
diff -u "$WORK/pre_rows.json" "$WORK/post_rows.json" || fail "candidates database not row-for-row identical across restart"

echo "== scrape /metrics after restart =="
curl -sf "$BASE/metrics" >"$WORK/metrics_post.txt" || fail "post-restart /metrics scrape failed"
# The recovered session was served from disk: exactly one rehydration and no
# second generation (the only POST /api/sessions happened in run one).
grep -q '^jitd_rehydrations_total 1$' "$WORK/metrics_post.txt" \
  || fail "post-restart /metrics does not report the rehydration"
grep -q '^jitd_sessions_live 1$' "$WORK/metrics_post.txt" \
  || fail "post-restart /metrics does not report the rehydrated session as live"
# Rehydration faults the session's pages back in through the buffer pool.
grep -q '^jitd_pool_misses_total [1-9]' "$WORK/metrics_post.txt" \
  || fail "post-restart /metrics shows no buffer-pool faults after rehydration"

stop_jitd
echo "PASS: session $SID survived the restart byte-for-byte"
