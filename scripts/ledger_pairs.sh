#!/usr/bin/env bash
# Paired benchmark runs of a parent commit and a change under two code
# layouts: the raw material of a perf-ledger entry (BENCH_<n>.json).
#
# Run from the repository root:
#
#   scripts/ledger_pairs.sh PARENT [CHANGE]
#
# PARENT and CHANGE are git revisions; CHANGE defaults to HEAD. OUT in
# the environment names the output directory (default target/ledger).
# The protocol is fixed: 10 rounds of every workload at the held-out
# seed 2, and a traced pass of the four batch workloads.
#
# Link order and code alignment move wall time by several percent
# without any change to the code path under test, and the calibration
# kernel that scales every reported time is linked into the same
# binary. So each side is built twice: with the default flags, and
# with every function aligned to 64 bytes and every block that is not
# reached by fall-through aligned to 32 bytes. A claim counts only if
# it holds under both layouts, unscaled as well as scaled.
#
# Steps, all under $OUT:
#  1. `git archive` each revision into src/<side>/ and build dsp-perf
#     and dualbank there per layout: bin/<side>-<layout>/.
#  2. For each workload, 10 rounds of `dsp-perf run --workload W
#     --seed 2 --json`, one per binary; the rounds alternate
#     between one order of the four and its reverse, so every two of
#     them alternate. runs/W/<side>-<layout>-NN.json, stderr beside it.
#  3. unscaled/: the same files with end-to-end times multiplied back
#     by the run's calibration kernel median over the reference time
#     it printed beside it (rates divided).
#  4. compare/: `dsp-perf compare` of change against parent under each
#     layout, scaled and unscaled, and the null row: the parent's
#     aligned build against its default build. Each row ends with its
#     paired win count, `wins K/N`: the rounds in which the change's
#     run beat the parent's run of the same round (ties count for
#     neither), beside the verdict, which it does not replace.
#  5. traced/: one traced pass, `dsp-perf run --seed 2 --json
#     --trace-out` over the batch workloads, of each default build and
#     of the parent's aligned build, for the per-layer metrics; the two
#     parent builds differ by layout alone, the per-layer noise floor.
#     traced/sim_tags.json counts each traced sweep's `simulate` spans
#     by their `sim` tag (hit, miss, wait; `untagged` where a build
#     does not tag them): how many cells simulated.
#  6. passes/: three `dualbank bench all --jobs 1 --json` reports per
#     side, whose `opt_pass_ms` split the optimizer by pass.
set -euo pipefail
cd "$(dirname "$0")/.."

PARENT=${1:?usage: scripts/ledger_pairs.sh PARENT [CHANGE]}
CHANGE=${2:-HEAD}
OUT=${OUT:-target/ledger}
PAIRS=10
SEED=2
WORKLOADS="gen-cold suite-cold suite-warm suite-disk serve-direct serve-routed"
TRACED="suite-cold suite-disk suite-warm gen-cold"
ALIGNED="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=5"
BINS="parent-default change-default parent-aligned change-aligned"

mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
ROOT=$(pwd)

echo "== build: $PARENT and $CHANGE, default and aligned =="
for side in parent change; do
  rev=$PARENT
  [ "$side" = change ] && rev=$CHANGE
  rm -rf "$OUT/src/$side"
  mkdir -p "$OUT/src/$side"
  git archive "$rev" | tar -x -C "$OUT/src/$side"
  git rev-parse "$rev" >"$OUT/src/$side.commit"
  for layout in default aligned; do
    flags=""
    [ "$layout" = aligned ] && flags=$ALIGNED
    (cd "$OUT/src/$side" && RUSTFLAGS="$flags" cargo build --release --offline --quiet \
      -p dsp-perf -p dualbank --target-dir "$OUT/target/$side-$layout")
    mkdir -p "$OUT/bin/$side-$layout"
    cp "$OUT/target/$side-$layout/release/dsp-perf" \
      "$OUT/target/$side-$layout/release/dualbank" "$OUT/bin/$side-$layout/"
  done
done

# Run a tool of one build from its side's checkout: BUILD TOOL ARGS...
run_in() {
  local build=$1 tool=$2
  shift 2
  (cd "$OUT/src/${build%%-*}" && "$OUT/bin/$build/$tool" "$@")
}

echo "== paired runs: $PAIRS rounds of $WORKLOADS, seed $SEED =="
for w in $WORKLOADS; do
  mkdir -p "$OUT/runs/$w"
  for i in $(seq -w 1 "$PAIRS"); do
    order=$BINS
    [ $((10#$i % 2)) -eq 0 ] && order=$(echo "$BINS" | tr ' ' '\n' | tac | tr '\n' ' ')
    for bin in $order; do
      run_in "$bin" dsp-perf run --workload "$w" --seed "$SEED" \
        --json "$OUT/runs/$w/$bin-$i.json" \
        >/dev/null 2>"$OUT/runs/$w/$bin-$i.err"
    done
    echo "   $w round $i done"
  done
done

echo "== unscaled copies =="
python3 - "$OUT" <<'EOF'
import json, pathlib, re, sys
out = pathlib.Path(sys.argv[1])
for run in sorted(out.glob("runs/*/*.json")):
    err = run.with_suffix(".err").read_text()
    calib = re.search(r"calibration kernel median ([0-9.]+) ms, reference ([0-9.]+) ms", err)
    factor = float(calib.group(1)) / float(calib.group(2))
    doc = json.loads(run.read_text())
    for result in doc["end_to_end"].values():
        for name, metric in result["metrics"].items():
            if metric["unit"] in ("ms", "s"):
                metric["value"] *= factor
            elif metric["unit"] == "1/s":
                metric["value"] /= factor
    dest = out / "unscaled" / run.parent.name / run.name
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(doc))
EOF

echo "== compare =="
mkdir -p "$OUT/compare"
# Append `wins K/N` to each compare row read on stdin:
# BENCHMARK.json RUNS_DIR PARENT_BIN CHANGE_BIN.
WINS_PY=$(cat <<'EOF'
import json, pathlib, sys
bench, runs, parent, change = sys.argv[1:5]
doc = json.loads(pathlib.Path(bench).read_text())
better = {m["name"]: m["better"] for s in ("end_to_end", "per_layer") for m in doc[s]}
def values(workload, metric, build):
    out = []
    for f in sorted(pathlib.Path(runs, workload).glob(build + "-*.json")):
        run = json.loads(f.read_text())
        for section in ("end_to_end", "per_layer"):
            m = run.get(section, {}).get(workload, {}).get("metrics", {}).get(metric)
            if m is not None:
                out.append(m["value"])
    return out
for line in sys.stdin:
    fields = line.split()
    if len(fields) < 5 or fields[1] not in better:
        print(line, end="")
        continue
    p, c = values(fields[0], fields[1], parent), values(fields[0], fields[1], change)
    sign = 1 if better[fields[1]] == "lower" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
    print(f"{line.rstrip()}  wins {wins}/{min(len(p), len(c))}")
EOF
)
compare() { # NAME DIR PARENT_BIN CHANGE_BIN
  local name=$1 dir=$2 p=$3 c=$4 w
  for w in $WORKLOADS; do
    "$OUT/bin/change-default/dsp-perf" compare --bench "$ROOT/BENCHMARK.json" \
      --parent "$OUT/$dir/$w/$p"-*.json --change "$OUT/$dir/$w/$c"-*.json
  done | python3 -c "$WINS_PY" "$ROOT/BENCHMARK.json" "$OUT/$dir" "$p" "$c" \
    >"$OUT/compare/$name.txt"
  echo "   $name"
  grep latency_p50_ms "$OUT/compare/$name.txt" | sed 's/^/     /'
}
for layout in default aligned; do
  compare "$layout-scaled" runs "parent-$layout" "change-$layout"
  compare "$layout-unscaled" unscaled "parent-$layout" "change-$layout"
done
compare null-scaled runs parent-default parent-aligned
compare null-unscaled unscaled parent-default parent-aligned

echo "== traced pass =="
mkdir -p "$OUT/traced"
args=""
for w in $TRACED; do args="$args --workload $w"; done
for build in parent-default change-default parent-aligned; do
  # shellcheck disable=SC2086
  run_in "$build" dsp-perf run $args --seed "$SEED" \
    --json "$OUT/traced/$build.json" --trace-out "$OUT/traced/$build-traces" \
    >"$OUT/traced/$build.out" 2>&1
done
python3 - "$OUT" <<'EOF'
import collections, json, pathlib, sys
out = pathlib.Path(sys.argv[1])
tags = {}
for doc in sorted(out.glob("traced/*-traces/*.trace.json")):
    build = doc.parent.name.removesuffix("-traces")
    sweeps = collections.defaultdict(collections.Counter)
    for e in json.loads(doc.read_text())["traceEvents"]:
        if e.get("name") == "simulate":
            args = e.get("args", {})
            sweeps[args.get("trace")][args.get("sim", "untagged")] += 1
    # One dict of span counts by tag per traced sweep (trace id).
    tags.setdefault(build, {})[doc.name.removesuffix(".trace.json")] = [
        dict(sorted(c.items())) for _, c in sorted(sweeps.items())
    ]
(out / "traced" / "sim_tags.json").write_text(json.dumps(tags, indent=1))
for build, workloads in tags.items():
    for workload, sweeps in workloads.items():
        kinds = collections.Counter(json.dumps(s, sort_keys=True) for s in sweeps)
        print(f"   {build} {workload}: " + ", ".join(f"{n} x {k}" for k, n in kinds.items()))
EOF

echo "== optimizer passes (default layout) =="
mkdir -p "$OUT/passes"
for i in 1 2 3; do
  for side in parent change; do
    run_in "$side-default" dualbank bench all --jobs 1 \
      --json "$OUT/passes/$side-$i.json" >/dev/null
  done
done

echo "Done: $OUT"
