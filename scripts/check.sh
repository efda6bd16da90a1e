#!/usr/bin/env bash
# Repo-wide quality gate: build, tests, formatting, lints.
#
# Run from the repository root:
#
#   scripts/check.sh
#
# Pass extra cargo flags via CARGO_FLAGS (e.g. CARGO_FLAGS=--offline).
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:-}

# Scratch space for every step below, one subdirectory per step, and
# the PIDs of every process a step leaves running. The one EXIT trap
# stops them all and removes the scratch space, whichever step fails.
WORK=$(mktemp -d)
mkdir "$WORK"/{cache,trace,router,chaos,obs,fuzz,part}
PIDS=""
stop_all() { # signal (default TERM) and reap every recorded PID
  [ -n "$PIDS" ] || return 0
  kill "${1:--TERM}" $PIDS 2>/dev/null || true
  wait $PIDS 2>/dev/null || true
  PIDS=""
}
trap 'stop_all; rm -rf "$WORK"' EXIT

echo "== cargo build --release =="
cargo build --release --workspace $CARGO_FLAGS

echo "== cargo test -q =="
# Includes the serving tier's in-process checks: compile traffic beside
# two bench-all sweeps (crates/serve/tests/loopback.rs), load through a
# router with a drained replica (crates/router/tests/loopback.rs), and
# the client-side fault classes of every chaos scenario (tests/chaos.rs).
cargo test -q --workspace $CARGO_FLAGS

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets $CARGO_FLAGS -- -D warnings

echo "== dsp-perf release-mode correctness gate =="
# One quick suite-warm run of the repository benchmark against the
# optimized simulator: every sweep must hit the pinned cycle total and
# projection digest, or the run exits nonzero. (`cargo test` runs the
# same gate only in debug, where overflow checks differ.)
./target/release/dsp-perf run --quick --workload suite-warm --seed 2 >/dev/null
# The same gate on unseen code: every cell of 40 generated programs is
# compiled fresh and checked word for word against the reference
# interpreter.
./target/release/dsp-perf run --quick --workload gen-cold --seed 2 >/dev/null

echo "== persistent-cache crash smoke test =="
# Kill a sweep mid-run, restart over the crashed store, and require the
# warmed report to be byte-identical to a cold store-less run. The
# atomic tmp-file+rename publish means a SIGKILL at any instant must
# leave zero quarantined entries.
CACHE_DIR=$WORK/cache
./target/release/dualbank bench all --jobs 1 --cache-dir "$CACHE_DIR" \
  >/dev/null 2>&1 & PIDS="$PIDS $!"
sleep 0.3
stop_all -KILL
# DSP_LOG=info: the warm-start banner (grepped below) logs at info.
DSP_LOG=info ./target/release/dualbank bench all --jobs 1 --cache-dir "$CACHE_DIR" \
  --json "$CACHE_DIR/warm.json" --deterministic >/dev/null 2>"$CACHE_DIR/stderr"
grep -q ' 0 quarantined' "$CACHE_DIR/stderr" \
  || { echo "FAIL: crash left quarantined entries"; cat "$CACHE_DIR/stderr"; exit 1; }
./target/release/dualbank bench all --jobs 1 \
  --json "$CACHE_DIR/cold.json" --deterministic >/dev/null
cmp "$CACHE_DIR/warm.json" "$CACHE_DIR/cold.json" \
  || { echo "FAIL: post-crash warm report differs from cold run"; exit 1; }

echo "== trace smoke test =="
# --trace-out must yield a Perfetto-loadable Chrome trace document
# with nonzero nested spans, and tracing must not perturb results:
# the deterministic report is byte-identical with tracing on or off.
TDIR=$WORK/trace
./target/release/dualbank bench fir_32_1 --jobs 2 --trace-out "$TDIR/trace.json" \
  --json "$TDIR/traced.json" --deterministic >/dev/null
./target/release/dualbank trace-validate "$TDIR/trace.json"
./target/release/dualbank bench fir_32_1 --jobs 2 \
  --json "$TDIR/untraced.json" --deterministic >/dev/null
cmp "$TDIR/traced.json" "$TDIR/untraced.json" \
  || { echo "FAIL: tracing perturbed the deterministic report"; exit 1; }

echo "== dsp-router multi-node smoke test =="
# Two replicas behind the router: the routed sweep must reduce to the
# byte-identical deterministic report of a plain CLI run, draining one
# replica must be absorbed by the ring, and load pushed through the
# router afterwards must finish with zero failed requests.
RDIR=$WORK/router
# --workers 6 gives each replica connection headroom for the router's
# pooled keep-alives plus its readiness probes (see docs/serving.md).
./target/release/dualbank serve --addr 127.0.0.1:0 --jobs 1 --workers 6 \
  --replica-id ra >"$RDIR/ra.log" 2>&1 & PIDS="$PIDS $!"
./target/release/dualbank serve --addr 127.0.0.1:0 --jobs 1 --workers 6 \
  --replica-id rb >"$RDIR/rb.log" 2>&1 & PIDS="$PIDS $!"
node_addr() { # extract host:port from a node's startup banner
  for _ in $(seq 100); do
    local a
    a=$(sed -n 's#^dsp-[a-z-]* listening on http://##p' "$1" | head -n1)
    if [ -n "$a" ]; then echo "$a"; return 0; fi
    sleep 0.1
  done
  echo "FAIL: no startup banner in $1" >&2; cat "$1" >&2; return 1
}
RA_ADDR=$(node_addr "$RDIR/ra.log")
RB_ADDR=$(node_addr "$RDIR/rb.log")
./target/release/dsp-router --addr 127.0.0.1:0 --replicas "$RA_ADDR,$RB_ADDR" \
  >"$RDIR/router.log" 2>&1 & PIDS="$PIDS $!"
RT_ADDR=$(node_addr "$RDIR/router.log")
for _ in $(seq 100); do
  curl -fsS "http://$RT_ADDR/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS -X POST "http://$RT_ADDR/sweep" -H 'Content-Type: application/json' \
  -d '{"bench": "fir_32_1"}' >"$RDIR/routed.json"
./target/release/dualbank report-project "$RDIR/routed.json" >"$RDIR/routed.det.json"
./target/release/dualbank bench fir_32_1 --jobs 1 \
  --json "$RDIR/single.json" --deterministic >/dev/null
cmp "$RDIR/routed.det.json" "$RDIR/single.json" \
  || { echo "FAIL: routed sweep differs from a single-node run under projection"; exit 1; }
# Drain one replica and wait for the router to eject it from the ring.
# (Fetch to a file rather than `curl | grep -q`: under pipefail, grep's
# early exit on a match EPIPEs curl and fails the pipeline spuriously.)
curl -fsS -X POST "http://$RB_ADDR/admin/shutdown" >/dev/null
for _ in $(seq 100); do
  curl -fsS "http://$RT_ADDR/metrics" -o "$RDIR/rt-metrics.txt" || true
  grep -q "dsp_router_upstream_up{replica=\"$RB_ADDR\"} 0" "$RDIR/rt-metrics.txt" && break
  sleep 0.1
done
grep -q "dsp_router_upstream_up{replica=\"$RB_ADDR\"} 0" "$RDIR/rt-metrics.txt" \
  || { echo "FAIL: router never ejected the drained replica"; exit 1; }
# Load through the router against the surviving replica: 50 compiles,
# and `curl -f` fails the gate on any one that is not answered 2xx.
COMPILE_BODY='{"source": "float A[64]; float B[64]; float out; void main() { int i; float acc; acc = 0.0; for (i = 0; i < 64; i++) acc += A[i] * B[i]; out = acc; }", "strategy": "cb"}'
for _ in $(seq 50); do
  curl -fsS -X POST "http://$RT_ADDR/compile" -H 'Content-Type: application/json' \
    -d "$COMPILE_BODY" >/dev/null \
    || { echo "FAIL: a compile through the router failed after the drain"; exit 1; }
done
stop_all

echo "== chaos fault-injection smoke test =="
# Two replicas, replica B reachable only through a fixed-seed dsp-chaos
# proxy. Trickle (benign): the routed sweep must still complete and
# reduce to the byte-identical deterministic report. Reset
# (destructive): retries + breaker must ride every cell out to the
# clean replica — same byte-identical bar. Every request runs under a
# hard `timeout` so a wedged worker fails the gate instead of hanging
# it, and the proxy's own /metrics must show the faults were real.
CHAOS_DIR=$WORK/chaos
./target/release/dualbank serve --addr 127.0.0.1:0 --jobs 1 --workers 6 \
  --replica-id ca >"$CHAOS_DIR/ca.log" 2>&1 & PIDS="$PIDS $!"
./target/release/dualbank serve --addr 127.0.0.1:0 --jobs 1 --workers 6 \
  --replica-id cb >"$CHAOS_DIR/cb.log" 2>&1 & PIDS="$PIDS $!"
CA_ADDR=$(node_addr "$CHAOS_DIR/ca.log")
CB_ADDR=$(node_addr "$CHAOS_DIR/cb.log")
chaos_admin_addr() { # the proxy's second banner line
  for _ in $(seq 100); do
    local a
    a=$(sed -n 's#^dsp-chaos admin on http://##p' "$1" | head -n1)
    if [ -n "$a" ]; then echo "$a"; return 0; fi
    sleep 0.1
  done
  echo "FAIL: no admin banner in $1" >&2; cat "$1" >&2; return 1
}
run_chaos_scenario() { # $1 scenario  $2 chaos log  $3 router log  $4 out.json
  local scen=$1 clog=$2 rlog=$3 out=$4
  ./target/release/dsp-chaos --listen 127.0.0.1:0 --admin 127.0.0.1:0 \
    --upstream "$CB_ADDR" --scenario "$scen" --seed 7 --fault-pct 100 \
    >"$clog" 2>&1 & PIDS="$PIDS $!"
  local cx_addr cx_admin rt_addr
  cx_addr=$(node_addr "$clog")
  cx_admin=$(chaos_admin_addr "$clog")
  ./target/release/dsp-router --addr 127.0.0.1:0 \
    --replicas "$CA_ADDR,$cx_addr" --retries 3 --probe-ms 200 \
    --breaker-threshold 2 --breaker-cooldown-ms 300 \
    >"$rlog" 2>&1 & PIDS="$PIDS $!"
  rt_addr=$(node_addr "$rlog")
  for _ in $(seq 100); do
    curl -fsS "http://$rt_addr/readyz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  timeout 90 curl -fsS -X POST "http://$rt_addr/sweep" \
    -H 'Content-Type: application/json' -d '{"bench": "fir_32_1"}' >"$out" \
    || { echo "FAIL: $scen routed sweep failed or wedged past the deadline"; exit 1; }
  curl -fsS "http://$cx_admin/metrics" -o "$CHAOS_DIR/$scen-admin.txt"
  local injected
  injected=$(sed -n "s/^dsp_chaos_faults_total{kind=\"$scen\"} //p" \
    "$CHAOS_DIR/$scen-admin.txt")
  [ "${injected:-0}" -gt 0 ] \
    || { echo "FAIL: $scen proxy injected no faults"; cat "$CHAOS_DIR/$scen-admin.txt"; exit 1; }
}
# Trickle: slow-but-progressing bytes through the proxy, complete doc.
run_chaos_scenario trickle "$CHAOS_DIR/cx1.log" "$CHAOS_DIR/cr1.log" \
  "$CHAOS_DIR/trickled.json"
./target/release/dualbank report-project "$CHAOS_DIR/trickled.json" \
  >"$CHAOS_DIR/trickled.det.json"
cmp "$CHAOS_DIR/trickled.det.json" "$RDIR/single.json" \
  || { echo "FAIL: trickled routed sweep differs from single-node run under projection"; exit 1; }
# Reset: every connection to B is RST; cells must retry onto A.
run_chaos_scenario reset "$CHAOS_DIR/cx2.log" "$CHAOS_DIR/cr2.log" \
  "$CHAOS_DIR/reset.json"
./target/release/dualbank report-project "$CHAOS_DIR/reset.json" \
  >"$CHAOS_DIR/reset.det.json"
cmp "$CHAOS_DIR/reset.det.json" "$RDIR/single.json" \
  || { echo "FAIL: reset-storm routed sweep differs from single-node run under projection"; exit 1; }
stop_all

echo "== fleet observability (dsp-obs) smoke test =="
# Two replicas behind a router, one routed sweep: `dualbank obs
# snapshot` must show that sweep's spans stitched across all three
# processes under a single trace id, and `dsp-obs export` of the same
# trace must produce a Perfetto file that passes trace-validate with
# the router.upstream hop present. The metric-name drift test (live
# /metrics vs docs, both directions) rides in this step too.
OBS_DIR=$WORK/obs
./target/release/dualbank serve --addr 127.0.0.1:0 --jobs 1 --workers 6 \
  --replica-id oa >"$OBS_DIR/oa.log" 2>&1 & PIDS="$PIDS $!"
./target/release/dualbank serve --addr 127.0.0.1:0 --jobs 1 --workers 6 \
  --replica-id ob >"$OBS_DIR/ob.log" 2>&1 & PIDS="$PIDS $!"
OA_ADDR=$(node_addr "$OBS_DIR/oa.log")
OB_ADDR=$(node_addr "$OBS_DIR/ob.log")
./target/release/dsp-router --addr 127.0.0.1:0 --replicas "$OA_ADDR,$OB_ADDR" \
  >"$OBS_DIR/router.log" 2>&1 & PIDS="$PIDS $!"
OR_ADDR=$(node_addr "$OBS_DIR/router.log")
for _ in $(seq 100); do
  curl -fsS "http://$OR_ADDR/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done
OBS_TARGETS="--target router=$OR_ADDR --targets oa=$OA_ADDR,ob=$OB_ADDR"
# Sweep cells hash (strategy, source) onto their home replica, so one
# source's 7 cells *almost* always span both replicas — vary the
# source until a trace touches all three processes.
TRACE_ID=""
for n in 1 2 3 4 5; do
  timeout 90 curl -fsS -X POST "http://$OR_ADDR/sweep" \
    -H 'Content-Type: application/json' \
    -d "{\"source\": \"int x; void main() { x = 1 + $n; }\"}" >/dev/null \
    || { echo "FAIL: routed sweep for the obs smoke failed"; exit 1; }
  ./target/release/dualbank obs snapshot $OBS_TARGETS --out "$OBS_DIR/snap.json"
  TRACE_ID=$(sed -n 's/.*{"trace": "\([0-9a-f]*\)", "spans": [0-9]*, "nodes": \["router", "oa", "ob"\].*/\1/p' \
    "$OBS_DIR/snap.json" | head -n1)
  [ -n "$TRACE_ID" ] && break
done
[ -n "$TRACE_ID" ] \
  || { echo "FAIL: no trace stitched across router+oa+ob in obs snapshot"; cat "$OBS_DIR/snap.json"; exit 1; }
# Golden structure: every section of the dualbank-obs/v1 document.
for key in '"schema": "dualbank-obs/v1"' '"targets": \[' '"counters": {' \
           '"latency": \[' '"slo": {' '"availability"' '"traces": \['; do
  grep -q "$key" "$OBS_DIR/snap.json" \
    || { echo "FAIL: obs snapshot missing $key"; cat "$OBS_DIR/snap.json"; exit 1; }
done
grep -q '"up": true' "$OBS_DIR/snap.json" \
  || { echo "FAIL: obs snapshot saw no live target"; exit 1; }
# The standalone binary exports the stitched trace; it must be a valid
# Perfetto document carrying the cross-process hop.
./target/release/dsp-obs export --trace-id "$TRACE_ID" $OBS_TARGETS \
  --out "$OBS_DIR/stitched.json"
./target/release/dualbank trace-validate "$OBS_DIR/stitched.json"
grep -q '"name": "router.upstream"' "$OBS_DIR/stitched.json" \
  || { echo "FAIL: stitched export lost the router.upstream hop"; exit 1; }
grep -q '"name": "process_name", "ph": "M", "pid": 3' "$OBS_DIR/stitched.json" \
  || { echo "FAIL: stitched export does not carry three process tracks"; exit 1; }
stop_all
# Docs and live /metrics must agree on every dsp_* family name.
cargo test -q $CARGO_FLAGS --test metrics_drift

echo "== dsp-gen differential fuzz smoke test =="
# A fixed-seed campaign: 200 generated programs through every strategy,
# each diffed against the reference interpreter. Exits nonzero on any
# mismatch, trap, or Ideal-beating cycle count; two identical
# invocations must produce byte-identical JSON reports (no wall times,
# no paths — see docs/fuzzing.md).
FUZZ_DIR=$WORK/fuzz
./target/release/dualbank fuzz --seed 1 --count 200 \
  --json "$FUZZ_DIR/fuzz_a.json" >/dev/null
./target/release/dualbank fuzz --seed 1 --count 200 \
  --json "$FUZZ_DIR/fuzz_b.json" >/dev/null
cmp "$FUZZ_DIR/fuzz_a.json" "$FUZZ_DIR/fuzz_b.json" \
  || { echo "FAIL: fuzz report not byte-deterministic across runs"; exit 1; }
# The detect → shrink → archive path, end to end: an injected synthetic
# miscompile must be caught, minimized, and land in the corpus dir —
# and the shrink path must be as deterministic as the clean campaign:
# two runs give byte-identical reports and corpus files.
for run in a b; do
  ./target/release/dualbank fuzz --seed 2 --count 30 \
    --corpus-dir "$FUZZ_DIR/corpus_$run" --inject-mismatch "A1" \
    --json "$FUZZ_DIR/inject_$run.json" >/dev/null 2>&1 \
    && { echo "FAIL: injected miscompile campaign exited zero"; exit 1; }
done
ls "$FUZZ_DIR/corpus_a"/*.dsp >/dev/null 2>&1 \
  || { echo "FAIL: injected miscompile produced no corpus entry"; exit 1; }
cmp "$FUZZ_DIR/inject_a.json" "$FUZZ_DIR/inject_b.json" \
  || { echo "FAIL: injected fuzz report not byte-deterministic across runs"; exit 1; }
diff -r "$FUZZ_DIR/corpus_a" "$FUZZ_DIR/corpus_b" \
  || { echo "FAIL: injected fuzz corpus not byte-deterministic across runs"; exit 1; }
# Front-end robustness: byte-mutated programs must never panic.
./target/release/dualbank fuzz --mutate --seed 1 --count 40 --mutants 50 >/dev/null

echo "== partitioner parity smoke test =="
# Sweep the full benchmark matrix once per partitioner. Two invariants:
# where FM finds nothing to improve it must be *byte-identical* to the
# greedy run under the deterministic projection (same partitions, same
# schedules), and where it does differ, FM's summed cycle count must
# never regress the greedy's.
PART_DIR=$WORK/part
./target/release/dualbank bench all --jobs 1 --partitioner greedy \
  --json "$PART_DIR/greedy.json" --deterministic >/dev/null
./target/release/dualbank bench all --jobs 1 --partitioner fm \
  --json "$PART_DIR/fm.json" --deterministic >/dev/null
# A retired partitioner name is rejected up front: nonzero exit, an
# `unknown partitioner` error, and no sweep output.
if ./target/release/dualbank bench all --jobs 1 --partitioner refined \
  >"$PART_DIR/refined.out" 2>"$PART_DIR/refined.err"; then
  echo "FAIL: --partitioner refined was accepted"; exit 1
fi
grep -q "unknown partitioner" "$PART_DIR/refined.err" \
  || { echo "FAIL: --partitioner refined: no 'unknown partitioner' error"; exit 1; }
[ -s "$PART_DIR/refined.out" ] \
  && { echo "FAIL: --partitioner refined swept before rejecting"; exit 1; }
sum_cycles() { grep -o '"cycles": [0-9]*' "$1" | awk '{s+=$2} END{print s}'; }
GREEDY_CYCLES=$(sum_cycles "$PART_DIR/greedy.json")
FM_CYCLES=$(sum_cycles "$PART_DIR/fm.json")
if cmp -s "$PART_DIR/greedy.json" "$PART_DIR/fm.json"; then
  echo "   fm == greedy byte-for-byte ($FM_CYCLES cycles summed)"
elif [ "$FM_CYCLES" -le "$GREEDY_CYCLES" ]; then
  echo "   fm improved: $GREEDY_CYCLES -> $FM_CYCLES summed cycles"
else
  echo "FAIL: fm regressed summed cycles ($GREEDY_CYCLES -> $FM_CYCLES)"; exit 1
fi

echo "== persistent-cache fault-injection suite =="
# Every store IO site failing in turn (open/read/write/fsync/rename/
# remove/list), plus torn-write and bit-rot scenarios — already built
# above; -q keeps the gate output short.
cargo test -q -p dsp-driver $CARGO_FLAGS --test store_faults --test disk_store

echo "All checks passed."
