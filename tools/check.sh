#!/bin/sh
# Tier-1 gate: build, tests, grep-lint, and static analysis of every
# shipped instance (examples/instances/*.relpipe plus the built-in
# catalog presets and paper scenarios).  Lint warnings are tolerated
# (exit 1); errors (exit 2) fail the gate.

set -eu
cd "$(dirname "$0")/.."

echo "== dune build (dev profile: warnings are errors) =="
dune build

echo "== dune runtest =="
dune runtest

echo "== tools/forbid.sh =="
tools/forbid.sh

relpipe=_build/default/bin/relpipe_cli.exe

echo "== relpipe devlint: repository sources =="
# The AST-grounded source linter must be fully clean (exit 0) on the
# shipped tree: hints are fine, warnings and errors are not vetted.
"$relpipe" devlint

lint() {
  # Accept exit 0 (clean) and 1 (warnings); 2+ (errors) fails.
  "$@" && rc=0 || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "check.sh: lint reported errors: $*" >&2
    exit 1
  fi
}

echo "== relpipe lint: shipped instances =="
for f in examples/instances/*.relpipe; do
  lint "$relpipe" lint "$f"
done

echo "== relpipe lint: built-in catalog and scenarios =="
lint "$relpipe" lint --builtin

echo "== relpipe batch: determinism smoke test =="
# A 20-request sweep solved at 4 (oversubscribed) workers and at 1 worker
# must produce byte-identical response streams, and the shipped example
# batches must run without crashing (per-line errors are responses).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$relpipe" sweep --count 20 --seed 7 --class fully-hetero --stages 8 \
  --procs 6 -L 50 --emit-requests "$tmp/sweep.jsonl" --dry-run 2>/dev/null
"$relpipe" batch "$tmp/sweep.jsonl" --workers 4 --exact-workers \
  -o "$tmp/w4.jsonl"
"$relpipe" batch "$tmp/sweep.jsonl" --workers 1 -o "$tmp/w1.jsonl"
if ! diff -q "$tmp/w4.jsonl" "$tmp/w1.jsonl" >/dev/null; then
  echo "check.sh: batch responses differ between --workers 4 and 1" >&2
  diff "$tmp/w4.jsonl" "$tmp/w1.jsonl" >&2 || true
  exit 1
fi
[ "$(wc -l < "$tmp/w4.jsonl")" -eq 20 ] || {
  echo "check.sh: expected 20 response lines" >&2; exit 1; }

echo "== relpipe batch: shipped example batches =="
for f in examples/requests/*.jsonl; do
  "$relpipe" batch "$f" -o /dev/null
done

echo "== relpipe batch: lines outside RFC 8259 get error replies =="
# A number with a leading zero and a raw tab inside a string are not
# JSON, so each such request line is answered with a per-line error,
# never solved.
tab=$(printf '\t')
rest='stage 2 1\nproc 2 0.1\nlink default 2\n'
objective='"objective":{"minimize":"failure","max_latency":10}'
printf '%s\n' \
  "{\"v\":1,\"instance\":\"input 1\\n$rest\",$objective,\"budget\":007}" \
  "{\"v\":1,\"instance\":\"input${tab}1\\n$rest\",$objective}" \
  > "$tmp/strict.jsonl"
"$relpipe" batch "$tmp/strict.jsonl" -o "$tmp/strict.out"
if [ "$(grep -c '"status":"error"' "$tmp/strict.out")" -ne 2 ]; then
  echo "check.sh: batch answered a line that is not JSON" >&2
  cat "$tmp/strict.out" >&2
  exit 1
fi

echo "== relpipe atlas: streaming smoke (10^4 requests, workers 4 vs 1) =="
# A 10^4-request Zipf/bursty stream aggregated online must produce a
# byte-identical report at 4 (oversubscribed) workers and at 1 worker
# under the virtual clock, and the aggregation must run in bounded
# memory: 5x more requests may not double the top heap size.
"$relpipe" atlas -n 10000 --seed 7 --virtual-clock -w 4 --exact-workers \
  --gc-stats -o "$tmp/atlas-w4.out" 2>"$tmp/atlas-10k.gc"
"$relpipe" atlas -n 10000 --seed 7 --virtual-clock -w 1 \
  -o "$tmp/atlas-w1.out"
if ! diff -q "$tmp/atlas-w4.out" "$tmp/atlas-w1.out" >/dev/null; then
  echo "check.sh: atlas report differs between -w 4 and -w 1" >&2
  diff "$tmp/atlas-w4.out" "$tmp/atlas-w1.out" >&2 || true
  exit 1
fi
grep -q "^requests:" "$tmp/atlas-w4.out" || {
  echo "check.sh: atlas report is missing the requests line" >&2; exit 1; }
"$relpipe" atlas -n 2000 --seed 7 --virtual-clock -w 4 --exact-workers \
  --gc-stats -o /dev/null 2>"$tmp/atlas-2k.gc"
heap_10k=$(sed -n 's/^gc: top_heap_words=\([0-9]*\).*/\1/p' "$tmp/atlas-10k.gc")
heap_2k=$(sed -n 's/^gc: top_heap_words=\([0-9]*\).*/\1/p' "$tmp/atlas-2k.gc")
if [ -z "$heap_10k" ] || [ -z "$heap_2k" ]; then
  echo "check.sh: atlas --gc-stats did not report top_heap_words" >&2
  exit 1
fi
if [ "$heap_10k" -ge $((heap_2k * 2)) ]; then
  echo "check.sh: atlas memory grows with stream length" \
    "(top_heap_words $heap_2k at 2k requests, $heap_10k at 10k)" >&2
  exit 1
fi

echo "== relpipe serve: daemon smoke (2 clients, stats, drain, replay) =="
# A daemon on a Unix socket serves two concurrent scripted clients with
# overlapping request sets (shared-cache hits), renders stats, drains on
# SIGTERM answering every admitted request, and exits 0.  The recorded
# transcript then replays byte-identically at -w 1 and -w 8.
sock="$tmp/serve.sock"
rec="$tmp/serve.session"
"$relpipe" serve --unix "$sock" --record "$rec" --workers 2 \
  --exact-workers --cache-shards 4 --session-window 32 2>"$tmp/serve.err" &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "check.sh: serve socket never appeared" >&2
    cat "$tmp/serve.err" >&2
    exit 1
  fi
  sleep 0.1
done
head -12 "$tmp/sweep.jsonl" > "$tmp/c1.jsonl"
tail -12 "$tmp/sweep.jsonl" > "$tmp/c2.jsonl"
"$relpipe" call --unix "$sock" --client one "$tmp/c1.jsonl" \
  > "$tmp/c1.out" &
c1_pid=$!
"$relpipe" call --unix "$sock" --client two "$tmp/c2.jsonl" \
  > "$tmp/c2.out" &
c2_pid=$!
wait "$c1_pid" && wait "$c2_pid" || {
  echo "check.sh: serve client failed" >&2; exit 1; }
[ "$(wc -l < "$tmp/c1.out")" -eq 13 ] || {
  echo "check.sh: client one expected hello + 12 replies" >&2; exit 1; }
[ "$(wc -l < "$tmp/c2.out")" -eq 13 ] || {
  echo "check.sh: client two expected hello + 12 replies" >&2; exit 1; }
"$relpipe" call --unix "$sock" --op stats > "$tmp/stats.out"
grep -q '"name":"serve.requests"' "$tmp/stats.out" || {
  echo "check.sh: stats reply is missing the serve namespace" >&2; exit 1; }
# A stats metric object is the --metrics object without buckets.
grep -q '"name":"engine.requests","type":"counter"' "$tmp/stats.out" || {
  echo "check.sh: stats reply does not use the --metrics metric object" >&2
  exit 1; }
if grep -q '"kind"' "$tmp/stats.out"; then
  echo "check.sh: stats reply writes \"kind\", not the --metrics \"type\"" >&2
  exit 1
fi
# SIGTERM drain while a third client is mid-stream: once its handshake
# is in the (per-tick-flushed) recording, signal the daemon, and require
# one reply per admitted line — the recording is the ground truth.
"$relpipe" call --unix "$sock" --client drain-probe "$tmp/sweep.jsonl" \
  > "$tmp/c3.out" &
c3_pid=$!
i=0
while ! grep -q 'drain-probe' "$rec" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "check.sh: drain probe never reached the daemon" >&2
    exit 1
  fi
  sleep 0.1
done
kill -TERM "$serve_pid"
wait "$c3_pid" || { echo "check.sh: drain-probe client failed" >&2; exit 1; }
if wait "$serve_pid"; then :; else
  echo "check.sh: serve did not exit 0 on SIGTERM" >&2
  cat "$tmp/serve.err" >&2
  exit 1
fi
grep -q "drained:" "$tmp/serve.err" || {
  echo "check.sh: serve did not report a drain" >&2; exit 1; }
sid=$(sed -n 's/^send \([0-9][0-9]*\) .*drain-probe.*/\1/p' "$rec" | head -1)
admitted=$(grep -c "^send $sid " "$rec")
got=$(wc -l < "$tmp/c3.out")
if [ "$admitted" -ne "$got" ]; then
  echo "check.sh: drain dropped admitted requests ($admitted admitted, $got answered)" >&2
  exit 1
fi
"$relpipe" serve --replay "$rec" --cache-shards 4 --virtual-clock \
  -w 1 -o "$tmp/replay-w1.out"
"$relpipe" serve --replay "$rec" --cache-shards 4 --virtual-clock \
  -w 8 --exact-workers -o "$tmp/replay-w8.out"
if ! diff -q "$tmp/replay-w1.out" "$tmp/replay-w8.out" >/dev/null; then
  echo "check.sh: serve replay differs between -w 1 and -w 8" >&2
  diff "$tmp/replay-w1.out" "$tmp/replay-w8.out" >&2 || true
  exit 1
fi
[ -s "$tmp/replay-w1.out" ] || {
  echo "check.sh: serve replay produced no replies" >&2; exit 1; }

echo "== refusals before work =="
# An exact search over its budget is refused from the closed-form count of
# its mapping space, before any enumeration, and eval answers a wide
# instance without a search.  A refusal and a timeout kill both exit 124,
# so each case checks the message, not the exit code.
campus=examples/instances/campus-grid.relpipe
for case in \
  "more than 200000 mappings|solve -i $campus -L 10 -m exact" \
  "over budget|tri -i $campus -L 10 -P 5 --exact" \
  "no tractable certificate|eval -i test/fixtures/wide_fully_hetero.relpipe -F 0.5 --mapping 1:0"
do
  needle=${case%%|*}
  timeout 10 "$relpipe" ${case#*|} >"$tmp/refusal.out" 2>&1 || true
  if ! grep -q "$needle" "$tmp/refusal.out"; then
    echo "check.sh: '${case#*|}' did not print '$needle' within 10 s" >&2
    cat "$tmp/refusal.out" >&2
    exit 1
  fi
done

echo "== relpipe fuzz: smoke campaign =="
# 200 seeded cases across every oracle (including opt-vs-reference, which
# pins the optimized kernels to their frozen twins); any failure (exit 1)
# fails the gate and prints the minimized repro inline.
"$relpipe" fuzz --count 200 --seed 42

echo "== relpipe churn: incremental == cold smoke (20 events) =="
# A seeded 20-event churn scenario re-solved incrementally must print the
# same solutions as a from-scratch replay (warm-start reuse must never
# change an answer), and --verify re-proves every step bit-for-bit
# against parallel cold solves.
churn_fix=test/fixtures/churn_grid.relpipe
"$relpipe" churn -i "$churn_fix" --max-failure 0.5 -e 20 -s 11 \
  --virtual-clock > "$tmp/churn-warm.out"
"$relpipe" churn -i "$churn_fix" --max-failure 0.5 -e 20 -s 11 --cold \
  --virtual-clock > "$tmp/churn-cold.out"
if ! diff -q "$tmp/churn-warm.out" "$tmp/churn-cold.out" >/dev/null; then
  echo "check.sh: churn warm run differs from --cold run" >&2
  diff "$tmp/churn-warm.out" "$tmp/churn-cold.out" >&2 || true
  exit 1
fi
"$relpipe" churn -i "$churn_fix" --max-failure 0.5 -e 20 -s 11 --verify \
  --workers 4 --exact-workers --virtual-clock > "$tmp/churn-verify.out"
grep -q "verify:  warm == cold on 21 steps" "$tmp/churn-verify.out" || {
  echo "check.sh: churn --verify did not confirm all 21 steps" >&2; exit 1; }

echo "== relpipe exact: parallel == serial byte-diff smoke =="
# The probe+confirm parallel B&B and the stage-by-stage parallel
# interval DP (one pool job per target processor and stage) must print
# byte-identical answers — hex float bits included — at every worker
# count.  fig5 (n=2) is a single DP stage; federation (n=7, m=12, the
# largest shipped instance under the DP's 14-processor cap) runs six.
# The -L runs minimise the failure probability, so they cover the
# probe's min-failure ordering key: fig5 at the README's threshold 22,
# lab-cluster at 43.
for run in "bb fig5 -F 0.5" "dp fig5 -F 0.5" "dp federation -F 0.5" \
  "bb fig5 -L 22" "bb lab-cluster -L 43"; do
  set -- $run
  leg=$1 f=$2 obj="$3 $4"
  out="$tmp/exact-$leg-$f$3"
  "$relpipe" exact -i "examples/instances/$f.relpipe" $obj --leg "$leg" \
    > "$out-serial.out"
  for w in 2 8; do
    "$relpipe" exact -i "examples/instances/$f.relpipe" $obj --leg "$leg" \
      -w "$w" > "$out-w$w.out"
    if ! diff -q "$out-serial.out" "$out-w$w.out" >/dev/null; then
      echo "check.sh: exact --leg $leg $obj on $f differs between serial and -w $w" >&2
      diff "$out-serial.out" "$out-w$w.out" >&2 || true
      exit 1
    fi
  done
done
"$relpipe" exact -i examples/instances/lab-cluster.relpipe -F 0.5 \
  > "$tmp/exact-lab-serial.out"
"$relpipe" exact -i examples/instances/lab-cluster.relpipe -F 0.5 -w 4 \
  > "$tmp/exact-lab-w4.out"
if ! diff -q "$tmp/exact-lab-serial.out" "$tmp/exact-lab-w4.out" >/dev/null
then
  echo "check.sh: exact bb on lab-cluster differs between serial and -w 4" >&2
  diff "$tmp/exact-lab-serial.out" "$tmp/exact-lab-w4.out" >&2 || true
  exit 1
fi

echo "== relpipe cert: certify + independent-check gate =="
# Solve shipped instances with --certify and replay every certificate
# through the independent checker (lib/cert shares no solver code).  The
# gate is size-aware: B&B transcripts grow with the search tree
# (federation's is ~160 MB), so the bb leg covers fig5 and lab-cluster;
# the dp leg additionally covers federation (m=12, within the DP's
# 14-processor cap) — campus-grid and volunteer-network exceed it.
"$relpipe" solve -i examples/instances/fig5.relpipe -F 0.5 \
  --certify "$tmp/fig5.cert" >/dev/null
"$relpipe" cert -i examples/instances/fig5.relpipe "$tmp/fig5.cert" >/dev/null
"$relpipe" exact -i examples/instances/lab-cluster.relpipe -F 0.5 \
  --certify "$tmp/lab.cert" >/dev/null
"$relpipe" cert -i examples/instances/lab-cluster.relpipe "$tmp/lab.cert" \
  >/dev/null
# A min-failure transcript (the objective the exact-certify benchmark
# certifies): about 10k entries on fig5 at -L 22.
"$relpipe" exact -i examples/instances/fig5.relpipe -L 22 \
  --certify "$tmp/fig5-L.cert" >/dev/null
"$relpipe" cert -i examples/instances/fig5.relpipe "$tmp/fig5-L.cert" \
  >/dev/null
# Tampering through the CLI: raise the first pruned node's recorded bound
# by one hex digit (its last mantissa digit), and separately drop one node
# line.  The checker must refuse each (exit 1) and name the defect.
awk '!done && $1 == "node" && $3 == "pruned" && match($5, /[0-9a-e]p/) {
  d = substr($5, RSTART, 1)
  $5 = substr($5, 1, RSTART - 1) \
    substr("123456789abcdef", index("0123456789abcde", d), 1) \
    substr($5, RSTART + 1)
  done = 1
} { print }' "$tmp/fig5-L.cert" > "$tmp/fig5-L-raised.cert"
awk '$1 == "node" && ++k == 5000 { next } { print }' "$tmp/fig5-L.cert" \
  > "$tmp/fig5-L-dropped.cert"
for tamper in "raised:recorded bounds at" \
  "dropped:missing transcript entry for node"; do
  cert="$tmp/fig5-L-${tamper%%:*}.cert"
  if cmp -s "$tmp/fig5-L.cert" "$cert"; then
    echo "check.sh: tampering left $cert unchanged" >&2
    exit 1
  fi
  "$relpipe" cert -i examples/instances/fig5.relpipe "$cert" >/dev/null \
    2>"$cert.err" && rc=0 || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q "REJECTED: ${tamper#*:}" "$cert.err"; then
    echo "check.sh: relpipe cert did not reject $cert as expected (exit $rc)" >&2
    cat "$cert.err" >&2
    exit 1
  fi
done
# The exact-certify benchmark's shape (fully heterogeneous, n=5, m=6)
# under a loose latency bound.  The transcript is recorded under the
# bound the probe found, so most of its cuts read `pruned bounded` and
# are checked against the claim.  Relabelling them `dominated` must be
# refused: the search calls a cut bounded only when its incumbent cannot
# justify it.
ec=test/fixtures/exact_certify_5x6.relpipe
"$relpipe" exact -i "$ec" -L 1000000 --certify "$tmp/ec.cert" >/dev/null
"$relpipe" cert -i "$ec" "$tmp/ec.cert" >/dev/null
grep -q "^node .* pruned bounded " "$tmp/ec.cert" || {
  echo "check.sh: the exact-certify transcript has no bounded cut" >&2
  exit 1; }
sed 's/ pruned bounded / pruned dominated /' "$tmp/ec.cert" \
  > "$tmp/ec-relabelled.cert"
"$relpipe" cert -i "$ec" "$tmp/ec-relabelled.cert" >/dev/null \
  2>"$tmp/ec-relabelled.err" && rc=0 || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "REJECTED: dominated cut at" \
  "$tmp/ec-relabelled.err"; then
  echo "check.sh: relpipe cert accepted relabelled bounded cuts (exit $rc)" >&2
  cat "$tmp/ec-relabelled.err" >&2
  exit 1
fi
for f in fig5 lab-cluster federation; do
  "$relpipe" exact -i "examples/instances/$f.relpipe" -F 0.5 --leg dp \
    --certify "$tmp/$f-dp.cert" >/dev/null
  "$relpipe" cert -i "examples/instances/$f.relpipe" "$tmp/$f-dp.cert" \
    >/dev/null
done
# Oversized instances are refused loudly, not silently skipped: the DP
# leg must reject volunteer-network (m=24, above the 14-processor cap).
if "$relpipe" exact -i examples/instances/volunteer-network.relpipe -F 0.5 \
  --leg dp >/dev/null 2>&1; then
  echo "check.sh: exact --leg dp accepted an oversized instance" >&2
  exit 1
fi
# Digest binding: a certificate checked against the wrong instance must
# be rejected (exit 1).
if "$relpipe" cert -i examples/instances/lab-cluster.relpipe \
  "$tmp/fig5.cert" >/dev/null 2>&1; then
  echo "check.sh: checker accepted a certificate for the wrong instance" >&2
  exit 1
fi

echo "== bench: kernel-twin smoke (virtual clock) =="
# The optimized-vs-reference twin harness must run, emit a well-formed v2
# report, and pass the regression gate against its own output.
bench=_build/default/bench/main.exe
"$bench" --virtual-clock --json "$tmp/bench.json" >/dev/null
for needle in '"version":2' '"virtual_clock":true' '"kernel":"interval-dp"' \
  '"kernel":"general-dp"' '"kernel":"bb"' '"speedup_lo"'; do
  if ! grep -q "$needle" "$tmp/bench.json"; then
    echo "check.sh: bench report is missing $needle" >&2
    exit 1
  fi
done
"$bench" --virtual-clock --against "$tmp/bench.json" >/dev/null
# A committed real-clock report must still parse as a baseline, and the
# gate must refuse to compare it with virtual-clock timings (exit 2).
"$bench" --virtual-clock --against BENCH_PR5.json >/dev/null \
  2>"$tmp/bench.err" && rc=0 || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q '"virtual_clock":false but this run has true' \
  "$tmp/bench.err"; then
  echo "check.sh: bench compared a real-clock baseline with virtual timings" >&2
  cat "$tmp/bench.err" >&2
  exit 1
fi
# The obs guard runs alone: a twin-gate flag given with it must be refused
# (exit 2) before anything is timed, not silently ignored.
"$bench" --obs-guard --virtual-clock >/dev/null 2>"$tmp/bench.err" \
  && rc=0 || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q -- '--obs-guard runs alone' "$tmp/bench.err"; then
  echo "check.sh: bench ran the obs guard with a twin-gate flag" >&2
  cat "$tmp/bench.err" >&2
  exit 1
fi

echo "== relpipe prof: virtual-clock snapshot =="
# Under --virtual-clock the profile is a pure function of the instance,
# so it must match the committed golden snapshot byte-for-byte.
"$relpipe" prof -i test/fixtures/clean_fully_hetero.relpipe \
  --max-failure 0.5 --virtual-clock > "$tmp/prof.out"
if ! diff -u test/snapshots/prof-clean-fully-hetero.snap "$tmp/prof.out"; then
  echo "check.sh: relpipe prof output drifted from the committed snapshot" >&2
  echo "check.sh: re-record with RELPIPE_SNAPSHOT_UPDATE=1 dune runtest" >&2
  exit 1
fi

echo "== dune build @doc =="
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "odoc not installed; skipping the doc build"
fi

echo "check.sh: all gates passed"
