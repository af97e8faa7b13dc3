#!/usr/bin/env bash
# End-to-end smoke suite for the sadp CLI, shared by CI and local runs.
#
# Usage: scripts/ci-smoke.sh [corpus|budget|counters|paper|resume|serve|eco|wire|all]
#
# Environment:
#   SADP_BIN         sadp binary to drive (default ./target/release/sadp;
#                    CI builds it first, tests point this at the debug bin).
#                    The paper smoke runs the sadp-bench `table3` binary
#                    from the same directory.
#   SADP_SMOKE_PORT  first of three consecutive TCP ports for the serve
#                    smoke (default 7471)
#
# Every check is vacuity-guarded: a guard greps for evidence the
# interesting path actually ran before comparing outputs, so a silently
# skipped code path fails the suite instead of passing it.
set -euo pipefail

BIN=${SADP_BIN:-./target/release/sadp}
TABLE3=$(dirname "$BIN")/table3
PORT=${SADP_SMOKE_PORT:-7471}
cd "$(dirname "$0")/.."

die() {
  echo "ci-smoke: $*" >&2
  exit 1
}

[ -x "$BIN" ] || die "binary not found: $BIN (build it or set SADP_BIN)"

# Every corpus fixture is a shrunk, once-failing instance; a replay
# failure means a fixed bug regressed. The top-level fixtures and the
# imported suite ride along, so every committed design stays under the
# oracle's invariants and its kill-and-resume check. The imports carry a
# per-format non-vacuity guard: a DSN and a DEF must each route >=1 net,
# otherwise the real-layout ingestion path is silently dead.
smoke_corpus() {
  for f in fixtures/*.layout fixtures/corpus/*.layout; do
    "$BIN" fuzz --replay "$f"
  done
  routed_at_least_one() { # file
    local out
    out=$("$BIN" fuzz --replay "$1")
    echo "$out"
    [[ "$out" == *"clean ("* ]] || die "$1: replay was not clean"
    [[ "$out" =~ clean\ \(([0-9]+)\ nets,\ ([0-9]+)\ routed\) ]] ||
      die "$1: unrecognised replay summary"
    [ "${BASH_REMATCH[2]}" -ge 1 ] || die "$1: vacuous import — 0 nets routed"
  }
  local dsn=0 def=0
  for f in fixtures/imported/*.dsn; do
    routed_at_least_one "$f"
    dsn=$((dsn + 1))
  done
  for f in fixtures/imported/*.def; do
    routed_at_least_one "$f"
    def=$((def + 1))
  done
  [ "$dsn" -ge 1 ] || die "no .dsn fixture under fixtures/imported/"
  [ "$def" -ge 1 ] || die "no .def fixture under fixtures/imported/"
  echo "corpus smoke: OK ($dsn dsn, $def def imported)"
}

# Per-net budget exhaustion must fail its nets gracefully: the run
# finishes, reports, and records each starved net as a `budget_exceeded`
# failure (`sadp bench` itself fails on any cut conflict). A 200-node
# budget starves a few hundred of this fixture's 5600 nets.
smoke_budget() {
  local DIR
  DIR=$(mktemp -d)
  "$BIN" bench --test 5 --scale 0.2 --net-nodes 200 --trace "$DIR/trace.jsonl"
  grep -q '"event":"net_failed","net":[0-9]*,"reason":"budget_exceeded"' "$DIR/trace.jsonl" ||
    die "no net ran out of its node budget"
  rm -rf "$DIR"
  echo "budget smoke: OK"
}

# Deterministic work-counter gate. Test5 at scale 0.2 is routed with
# --profile and --trace, and the run's record must equal
# fixtures/counters/test5-scale0.2.txt exactly: the stdout (minus the
# wall-clock `cpu` line and the `wrote <trace path>` line), the profile's
# stage and count columns (times dropped), and the sha256 of the trace
# JSONL. Timings drift from machine to machine; these numbers do not, so
# any diff means the router did different work. A change that alters
# routing behaviour on purpose updates the fixture in the same commit:
# the gate leaves the observed record next to the diff, ready to copy
# over the fixture.
smoke_counters() {
  local DIR
  DIR=$(mktemp -d)
  "$BIN" bench --test 5 --scale 0.2 --profile --trace "$DIR/trace.jsonl" >"$DIR/stdout.txt"
  {
    awk -F'|' '/^(cpu |wrote |---)|^$/ { next }
      NF == 4 { gsub(/ /, "", $1); gsub(/ /, "", $4); print $1 " " $4; next }
      { print }' "$DIR/stdout.txt"
    echo "trace sha256 $(sha256sum <"$DIR/trace.jsonl" | cut -d' ' -f1)"
  } >"$DIR/counters.txt"
  grep -q '^recolor [0-9]' "$DIR/counters.txt" || die "no profile table was printed"
  grep -q '^decompose [1-9]' "$DIR/counters.txt" ||
    die "the profile's decompose row is empty: cut repair timed no simulator pass"
  diff fixtures/counters/test5-scale0.2.txt "$DIR/counters.txt" ||
    die "work counters differ from fixtures/counters/test5-scale0.2.txt (observed record: $DIR/counters.txt)"
  rm -rf "$DIR"
  echo "counters smoke: OK"
}

# Paper-table gate. Table III at scale 0.2 routes Test1-Test5 with our
# router and both baselines ([11] trim, [16] cut without merge); every
# row's Rout., overlay and #C columns and the suite totals must equal
# fixtures/counters/paper-scale0.2.txt. The CPU column is dropped: it is
# the only one that drifts. Table IV is left out because its [10]
# baseline alone takes about a minute at this scale. A change that alters
# routing on purpose re-records the fixture in the same commit, like the
# counters gate.
smoke_paper() {
  local DIR
  [ -x "$TABLE3" ] ||
    die "table3 binary not found: $TABLE3 (build it with cargo build -p sadp-bench --bin table3)"
  DIR=$(mktemp -d)
  "$TABLE3" --scale 0.2 >"$DIR/table3.txt"
  awk '/^-+$|^$/ { next } /\|/ { sub(/ *\|[^|]*$/, "") } { print }' "$DIR/table3.txt" \
    >"$DIR/paper.txt"
  [ "$(grep -c '^Test[1-5] ' "$DIR/paper.txt")" -eq 15 ] ||
    die "table3 did not print 15 rows (3 routers x Test1-Test5)"
  diff fixtures/counters/paper-scale0.2.txt "$DIR/paper.txt" ||
    die "table3 columns differ from fixtures/counters/paper-scale0.2.txt (observed record: $DIR/paper.txt)"
  rm -rf "$DIR"
  echo "paper smoke: OK"
}

# Checkpoint/resume on every committed design, the imported DSN and
# DEF+LEF included: `route --checkpoint` writes its last snapshot after
# finalize, and `route --resume` of it must print the same result — only
# the wall-clock `cpu` line may differ.
smoke_resume() {
  local DIR f n=0
  DIR=$(mktemp -d)
  for f in fixtures/*.layout fixtures/corpus/*.layout fixtures/imported/*.dsn \
    fixtures/imported/*.def; do
    "$BIN" route "$f" --checkpoint "$DIR/run.ckpt" | grep -v '^cpu ' >"$DIR/first.txt"
    [ "$(head -n 1 "$DIR/run.ckpt")" = "SADPCKPT v5" ] || die "$f: no v5 checkpoint written"
    "$BIN" route "$f" --resume "$DIR/run.ckpt" | grep -v '^cpu ' >"$DIR/resumed.txt"
    diff "$DIR/first.txt" "$DIR/resumed.txt" || die "$f: resumed route diverged"
    n=$((n + 1))
  done
  [ "$n" -ge 10 ] || die "only $n designs round-tripped"
  rm -rf "$DIR"
  echo "resume smoke: OK ($n designs)"
}

# Drives the binary over real TCP: a served job's streamed trace must
# byte-match `sadp route --trace`, and a job cancelled on a queue-only
# daemon must survive a daemon restart and resume to the same result as
# an uninterrupted submit. (`sadp submit --trace` strips the daemon's
# `job_*` lifecycle lines; on a raw socket the equivalent filter is
# `grep -v '"event":"job_'`.) The queue-only daemon never routes the
# job, so the restart case loads no checkpoint: it covers reloading the
# persisted layout and queue state. Loading a mid-job checkpoint after a
# restart is covered by `smoke_resume` above and by
# `crates/serve/tests/e2e.rs::killed_daemon_resumes_mid_job_from_its_state_dir`.
smoke_serve() {
  local STATE FIX BIG SERVE JOB REF
  STATE=$(mktemp -d)
  FIX=fixtures/corpus/clock-tree-multi-terminal.layout
  BIG=fixtures/corpus/multi-band-fault-recovery.layout
  # `grep -q` on a pipe SIGPIPEs the client under pipefail, so every
  # check captures the output first.
  status_has() { # job addr substring
    local out
    out=$("$BIN" job "$1" --status --addr "$2" 2>&1 || true)
    [[ "$out" == *"$3"* ]]
  }
  wait_ready() { # addr
    for _ in $(seq 100); do
      if status_has 999999 "$1" 'no such job'; then return 0; fi
      sleep 0.1
    done
    die "daemon at $1 never became ready"
  }
  # Live daemon: served trace is byte-identical to a direct route.
  "$BIN" serve --addr 127.0.0.1:"$PORT" --workers 2 --state-dir "$STATE" &
  SERVE=$!
  wait_ready 127.0.0.1:"$PORT"
  "$BIN" submit $FIX --addr 127.0.0.1:"$PORT" --wait --trace /tmp/served.jsonl
  "$BIN" route $FIX --trace /tmp/direct.jsonl
  cmp /tmp/served.jsonl /tmp/direct.jsonl
  kill $SERVE; wait $SERVE || true
  # Queue-only daemon, same state dir: submit stays queued and a cancel
  # settles it; the state survives the daemon's death.
  "$BIN" serve --addr 127.0.0.1:$((PORT + 1)) --workers 0 --state-dir "$STATE" &
  SERVE=$!
  wait_ready 127.0.0.1:$((PORT + 1))
  JOB=$("$BIN" submit $BIG --addr 127.0.0.1:$((PORT + 1)) | awk '{print $2; exit}')
  "$BIN" job "$JOB" --cancel --addr 127.0.0.1:$((PORT + 1))
  status_has "$JOB" 127.0.0.1:$((PORT + 1)) '"state":"cancelled"'
  kill $SERVE; wait $SERVE || true
  # Restarted worker daemon: the cancelled job reloads, resumes, and
  # matches an uninterrupted submit of the same layout.
  "$BIN" serve --addr 127.0.0.1:$((PORT + 2)) --workers 2 --state-dir "$STATE" &
  SERVE=$!
  wait_ready 127.0.0.1:$((PORT + 2))
  status_has "$JOB" 127.0.0.1:$((PORT + 2)) '"state":"cancelled"'
  "$BIN" job "$JOB" --resume --addr 127.0.0.1:$((PORT + 2))
  for _ in $(seq 200); do
    if status_has "$JOB" 127.0.0.1:$((PORT + 2)) '"state":"done"'; then break; fi
    sleep 0.1
  done
  status_has "$JOB" 127.0.0.1:$((PORT + 2)) '"state":"done"'
  REF=$("$BIN" submit $BIG --addr 127.0.0.1:$((PORT + 2)) --wait | awk '{print $2; exit}')
  kill $SERVE; wait $SERVE || true
  fields() {
    grep -o '"routed_nets":[0-9]*\|"wirelength":[0-9]*\|"vias":[0-9]*\|"overlay_units":[0-9]*\|"hard_overlay_violations":[0-9]*\|"cut_conflicts":[0-9]*' "$1"
  }
  diff <(fields "$STATE/job-$JOB.final") <(fields "$STATE/job-$REF.final")
  echo "serve smoke: OK"
}

# The anchor edit script exercises every edit kind plus undo/redo
# against the clock-tree fixture. An ECO trace is part of the
# reproducible contract: two runs are byte-identical, like every other
# entry point.
smoke_eco() {
  local FIX SCRIPT
  FIX=fixtures/corpus/clock-tree-multi-terminal.layout
  SCRIPT=fixtures/corpus/eco-undo-redo-roundtrip.edits
  "$BIN" edit $FIX --script $SCRIPT --trace /tmp/eco-1.jsonl
  "$BIN" edit $FIX --script $SCRIPT --trace /tmp/eco-2.jsonl
  grep -q '"event":"edit_applied"' /tmp/eco-1.jsonl || die "no edits ran"
  grep -q '"event":"nets_invalidated"' /tmp/eco-1.jsonl || die "no invalidation ran"
  cmp /tmp/eco-1.jsonl /tmp/eco-2.jsonl
  echo "eco smoke: OK"
}

# Hostile-input smoke: replays the wire/ingest fuzz regime (parse level
# plus a live in-process daemon), then drives the external daemon binary
# with an oversized line, garbage bytes, a half-written request
# (slow-loris) and a submit flood past --max-queue. Vacuity guards: the
# fuzz campaign must both accept and reject inputs, and every hostile
# probe must see its *specific* structured error marker.
smoke_wire() {
  local OUT SERVE P LINE SUB
  OUT=$("$BIN" fuzz --wire --seeds 60)
  echo "$OUT"
  [[ "$OUT" == *clean* ]] || die "wire fuzz campaign was not clean"
  [[ "$OUT" =~ checked\ ([0-9]+)\ inputs\ \(([0-9]+)\ accepted,\ ([0-9]+)\ rejected ]] ||
    die "unrecognised wire fuzz summary"
  [ "${BASH_REMATCH[2]}" -ge 1 ] || die "vacuous wire fuzz: no input accepted"
  [ "${BASH_REMATCH[3]}" -ge 1 ] || die "vacuous wire fuzz: no input rejected"

  P=$((PORT + 3))
  "$BIN" serve --addr 127.0.0.1:"$P" --workers 0 --max-request-bytes 2048 \
    --io-timeout-ms 500 --max-queue 1 &
  SERVE=$!
  probe() { # request line -> first response line
    exec 3<>/dev/tcp/127.0.0.1/"$P"
    printf '%s\n' "$1" >&3
    head -n 1 <&3
    exec 3<&- 3>&-
  }
  OUT=""
  for _ in $(seq 100); do
    if OUT=$(probe '{"cmd":"ping"}' 2>/dev/null) && [[ "$OUT" == *'"ok":true'* ]]; then
      break
    fi
    sleep 0.1
  done
  [[ "$OUT" == *'"ok":true'* ]] || die "daemon at port $P never became ready"

  # Oversized request line: structured refusal naming the cap.
  LINE=$(printf 'x%.0s' $(seq 4000))
  OUT=$(probe "$LINE")
  [[ "$OUT" == *'exceeds 2048 bytes'* ]] || die "oversized line not refused: $OUT"
  # Garbage bytes: classified parse error.
  OUT=$(probe 'GET / HTTP/1.1')
  [[ "$OUT" == *'not valid JSON'* ]] || die "garbage not classified: $OUT"
  # Slow-loris: half a request, then silence — the daemon must answer
  # with its timeout error instead of parking the handler thread.
  exec 3<>/dev/tcp/127.0.0.1/"$P"
  printf '{"cmd":"pi' >&3
  OUT=$(head -n 1 <&3)
  exec 3<&- 3>&-
  [[ "$OUT" == *'timed out'* ]] || die "slow-loris not timed out: $OUT"
  # Submit flood past --max-queue 1: the second submit is shed with the
  # overloaded marker.
  SUB='{"cmd":"submit","layout":"plane 3 8 8\nnet a 0:1,1 0:6,6\n"}'
  OUT=$(probe "$SUB")
  [[ "$OUT" == *'"ok":true'* ]] || die "first submit not admitted: $OUT"
  OUT=$(probe "$SUB")
  [[ "$OUT" == *'"overloaded":true'* ]] || die "flooded submit not shed: $OUT"

  probe '{"cmd":"shutdown"}' >/dev/null || true
  wait $SERVE || true
  echo "wire smoke: OK"
}

case "${1:-all}" in
  corpus) smoke_corpus ;;
  budget) smoke_budget ;;
  counters) smoke_counters ;;
  paper) smoke_paper ;;
  resume) smoke_resume ;;
  serve) smoke_serve ;;
  eco) smoke_eco ;;
  wire) smoke_wire ;;
  all)
    smoke_corpus
    smoke_budget
    smoke_counters
    smoke_paper
    smoke_resume
    smoke_serve
    smoke_eco
    smoke_wire
    echo "all smokes: OK"
    ;;
  *)
    echo "usage: $0 [corpus|budget|counters|paper|resume|serve|eco|wire|all]" >&2
    exit 2
    ;;
esac
