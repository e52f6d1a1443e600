#!/usr/bin/env bash
# End-to-end smoke: configure, build, run the test suite, run one bench at
# quick scale with JSON emission, and validate the emitted document.
# Usage: tools/ci_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S . >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== bench (quick scale, JSON) =="
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
ARCHGRAPH_BENCH_SCALE=quick ARCHGRAPH_BENCH_JSON="$OUT_DIR" \
    "$BUILD_DIR"/bench/table1_utilization

echo "== validate JSON =="
python3 - "$OUT_DIR/BENCH_table1_utilization.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

assert doc["bench"] == "table1_utilization", doc.get("bench")
records = doc["records"]
assert len(records) == 9, f"expected 9 records (3 workloads x 3 p), got {len(records)}"
for r in records:
    for key in ("workload", "machine", "n", "m", "procs", "seconds",
                "cycles", "instructions", "utilization", "phases"):
        assert key in r, f"record missing {key}: {r.keys()}"
    assert r["machine"] == "mta"
    assert r["cycles"] > 0 and r["seconds"] > 0
    assert 0.0 < r["utilization"] <= 1.0
    assert r["phases"], "empty per-phase breakdown"
    for p in r["phases"]:
        assert p["cycles"] >= 0 and p["name"], p

print(f"ok: {len(records)} records, all fields present")
EOF

echo "== simulator hot-path bench (quick scale, JSON schema only) =="
# Host timings are advisory on shared runners, so nothing here gates on a
# speed number: the gate is that the bench runs every series and emits a
# well-formed BENCH_host_sim.json that bench_diff can consume. Two gates are
# deterministic: event_queue/region_restart (a long region, then shorter
# ones restarting at time 0) must schedule nothing on the overflow heap, and
# on every machine/smp/* series at least 90% of the handled events must be
# dispatch-slot events (fused >= 0.9 x events; the queue keeps only wakes),
# so a refactor cannot silently route dispatches back through it. On every
# machine/mta/* series the events handled stay within 1.1 per simulated
# instruction: the MTA's issue loop queues completions, retries and
# releases, never per-instruction ready or issue events. A fourth gate is
# structural: every machine/* series allocates at most two coroutine
# frames per simulated thread (kernels run one frame per thread). Every
# record is the median of its runs and carries their min and max, and the
# synthetic machine/gpu/{compute,coalesced_load,scattered_load,fetch_add}
# series report host ns per lane operation.
ARCHGRAPH_BENCH_SCALE=quick ARCHGRAPH_BENCH_JSON="$OUT_DIR" \
    "$BUILD_DIR"/bench/micro_sim_hotpath >/dev/null
python3 - "$OUT_DIR/BENCH_host_sim.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

assert doc["bench"] == "host_sim", doc.get("bench")
records = doc["records"]
names = {r["benchmark"] for r in records}
for machine in ("mta", "smp", "gpu"):
    assert any(n.startswith(f"machine/{machine}/") for n in names), \
        f"no machine/{machine}/* series in {sorted(names)}"
for r in records:
    for key in ("benchmark", "ops", "seconds", "ops_per_sec", "seconds_min",
                "seconds_max", "runs"):
        assert key in r, f"record missing {key}: {r.keys()}"
    assert r["ops"] > 0 and r["seconds"] > 0 and r["ops_per_sec"] > 0, r
    assert r["runs"] >= 1, r
    assert r["seconds_min"] <= r["seconds"] <= r["seconds_max"], r
for op in ("compute", "coalesced_load", "scattered_load", "fetch_add"):
    lane = [r for r in records if r["benchmark"] == f"machine/gpu/{op}"]
    assert len(lane) == 1, f"no machine/gpu/{op} series in {sorted(names)}"
    assert lane[0]["lane_ops"] > 0 and lane[0]["ns_per_lane_op"] > 0, lane
assert "machine/smp/fig1_l2miss" in names, \
    f"no machine/smp/fig1_l2miss series in {sorted(names)}"
restart = [r for r in records if r["benchmark"] == "event_queue/region_restart"]
assert len(restart) == 1, f"no event_queue/region_restart in {sorted(names)}"
assert restart[0].get("heap_pushes") == 0, \
    f"region restarts leaked to the overflow heap: {restart[0]}"
for r in records:
    if not r["benchmark"].startswith("machine/"):
        continue
    assert r.get("events", 0) > 0 and "fused" in r, \
        f"machine series without event counts: {r}"
    assert r.get("threads", 0) > 0 and "frames" in r, \
        f"machine series without frame counts: {r}"
    assert r["threads"] <= r["frames"] <= 2 * r["threads"], \
        f"more than two coroutine frames per simulated thread: {r}"
    if r["benchmark"].startswith("machine/smp/"):
        assert r["fused"] >= 0.9 * r["events"], \
            f"SMP dispatches went through the event queue: {r}"
    if r["benchmark"].startswith("machine/mta/"):
        assert r["events"] <= 1.1 * r["ops"], \
            f"MTA handles more than 1.1 events per instruction: {r}"

print(f"ok: {len(records)} hot-path series (medians of runs), schema "
      "complete, GPU per-lane series present, "
      "region restarts stay off the heap, SMP dispatches use slots, "
      "MTA events <= 1.1 per instruction, one frame per simulated thread")
EOF
"$BUILD_DIR"/tools/bench_diff "$OUT_DIR/BENCH_host_sim.json" \
    "$OUT_DIR/BENCH_host_sim.json" --min-speedup 1.0 \
    --json "$OUT_DIR/bench_diff.json" >/dev/null
python3 - "$OUT_DIR/bench_diff.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
assert doc["tool"] == "bench_diff", doc.get("tool")
assert doc["ok"] is True
assert doc["series"], "self-diff emitted no series"
for s in doc["series"]:
    assert s["speedup"] == 1.0, s  # identical files: exactly 1.0
    for key in ("benchmark", "before_seconds", "after_seconds"):
        assert key in s, s
assert doc["only_before"] == [] and doc["only_after"] == []
print(f"ok: bench_diff --json emitted {len(doc['series'])} series")
EOF
echo "ok: bench_diff consumes the document (self-diff speedup 1.0, --json valid)"

echo "== bench host_metrics (BENCH_*.json carries the registry splice) =="
python3 - "$OUT_DIR/BENCH_table1_utilization.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
hm = doc["host_metrics"]
completed = hm["archgraph_sweep_cells_completed"]
assert completed["type"] == "counter" and completed["value"] == 9, completed
hist = hm["archgraph_sweep_cell_host_seconds"]
assert hist["type"] == "histogram" and hist["count"] == 9, hist
assert hist["buckets"][-1]["le"] == "+Inf", hist["buckets"][-1]
print(f"ok: host_metrics splice present ({len(hm)} instruments)")
EOF

echo "== cli --machine (one override per architecture) =="
"$BUILD_DIR"/tools/archgraph_cli rank --machine mta:procs=2,streams=32 \
    --n 4096 --algorithm walk --json \
    | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["machine"]["name"] == "mta", doc["machine"]
assert doc["machine"]["processors"] == 2, doc["machine"]
assert doc["machine"]["concurrency"] == 64, doc["machine"]
print("ok: mta override applied")
'
"$BUILD_DIR"/tools/archgraph_cli cc --machine smp:procs=2,l2_kb=512 \
    --random 2048,8192,1 --json \
    | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["machine"]["name"] == "smp", doc["machine"]
assert doc["machine"]["processors"] == 2, doc["machine"]
print("ok: smp override applied")
'
"$BUILD_DIR"/tools/archgraph_cli cc --machine gpu:procs=2,warp_width=8 \
    --random 2048,8192,1 --json \
    | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["machine"]["name"] == "gpu", doc["machine"]
assert doc["machine"]["processors"] == 2, doc["machine"]
print("ok: gpu override applied")
'

echo "== cli rejections (each must fail naming its own cause) =="
# A rejected run must exit non-zero AND name its cause on stderr, so a step
# cannot pass because some other flag or value was refused instead.
expect_cli_error() {  # expect_cli_error PATTERN ARG...
  local pattern=$1
  shift
  if "$BUILD_DIR"/tools/archgraph_cli "$@" >/dev/null \
      2>"$OUT_DIR/cli_err.txt"; then
    echo "error: archgraph_cli $* did not fail" >&2
    exit 1
  fi
  grep -qF -- "$pattern" "$OUT_DIR/cli_err.txt" || {
    echo "error: archgraph_cli $* failed without '$pattern':" >&2
    cat "$OUT_DIR/cli_err.txt" >&2
    exit 1
  }
}
expect_cli_error "unknown mta machine spec key 'bogus'" \
    rank --machine mta:bogus=1 --n 1024 --algorithm walk
expect_cli_error "warp_width must be >= 1" \
    cc --machine gpu:warp_width=0 --random 1024,4096,1
expect_cli_error "unknown gpu machine spec key 'wavefront'" \
    cc --machine gpu:wavefront=64 --random 1024,4096,1
expect_cli_error "unknown machine preset 'native'" \
    cc --machine native --random 1024,4096,1
expect_cli_error "unknown command 'msf'" msf --random 1024,4096,1
expect_cli_error "unknown flag '--n' for cc" \
    cc --machine mta --n 2048 --bogus 1
expect_cli_error "unknown flag '--bogus' for cc" \
    cc --machine mta --random 2048,8192,1 --bogus 1
echo "ok: rejected for their own cause (mta unknown key, gpu zero width," \
    "gpu unknown key, native, msf, cc --n, cc --bogus)"

echo "== bench rejections (a bad environment value exits 1 naming it) =="
# Every bench main reports an escaping error the way the tools do: exit 1
# and a message naming the variable, never an abort (exit 134).
expect_bench_error() {  # expect_bench_error VAR=VALUE BENCH
  local assignment=$1 bench=$2 rc=0
  env ARCHGRAPH_BENCH_SCALE=quick "$assignment" "$BUILD_DIR"/bench/"$bench" \
      >/dev/null 2>"$OUT_DIR/bench_err.txt" || rc=$?
  [ "$rc" -eq 1 ] || {
    echo "error: $assignment $bench exited $rc, want 1" >&2
    cat "$OUT_DIR/bench_err.txt" >&2
    exit 1
  }
  local var=${assignment%%=*}
  grep -qF -- "$var" "$OUT_DIR/bench_err.txt" || {
    echo "error: $assignment $bench failed without naming $var:" >&2
    cat "$OUT_DIR/bench_err.txt" >&2
    exit 1
  }
}
expect_bench_error ARCHGRAPH_BENCH_SCALE=qiuck fig1_list_ranking
expect_bench_error ARCHGRAPH_BENCH_JOBS=0 fig1_list_ranking
expect_bench_error ARCHGRAPH_BENCH_SCALE=qiuck micro_sim_hotpath
echo "ok: benches exit 1 naming ARCHGRAPH_BENCH_SCALE and ARCHGRAPH_BENCH_JOBS"

echo "== instrumented ci sweep (input to the lints and gate checks below) =="
# The ci grid's own gates are ctests: the tol-0 baseline plain and --profile
# (archgraph_sweep.golden_ci{,_profiled}), --jobs 1/--jobs 4, telemetry,
# manifest and profiler byte identity (archgraph_sweep.ci_{jobs,telemetry,
# manifest,profiled}_identical) and the ledger closure
# (archgraph_sweep.ci_accounting).
"$BUILD_DIR"/tools/archgraph_sweep --list >/dev/null
"$BUILD_DIR"/tools/archgraph_sweep run ci --jobs 4 \
    --out "$OUT_DIR/ci.jsonl" \
    --events-out "$OUT_DIR/ci_events.jsonl" \
    --metrics-out "$OUT_DIR/ci_metrics.txt" 2>/dev/null

echo "== OpenMetrics lint (--metrics-out must be well-formed) =="
python3 - "$OUT_DIR/ci_metrics.txt" <<'EOF'
import re
import sys

text = open(sys.argv[1]).read()
assert text.endswith("# EOF\n"), "exposition must end with '# EOF'"
lines = text.splitlines()

types = {}
for line in lines:
    m = re.match(r"# TYPE (\S+) (counter|gauge|histogram)$", line)
    if m:
        types[m.group(1)] = m.group(2)
assert types, "no # TYPE metadata"

helps = {m.group(1) for m in (re.match(r"# HELP (\S+) .+", l) for l in lines) if m}
assert set(types) == helps, f"TYPE/HELP mismatch: {set(types) ^ helps}"

name_re = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
buckets = {}
for line in lines:
    if line.startswith("#") or not line:
        continue
    sample, value = line.rsplit(" ", 1)
    m = re.match(r'^(\S+?)_bucket\{le="([^"]+)"\}$', sample)
    if m:
        buckets.setdefault(m.group(1), []).append((m.group(2), int(value)))
        continue
    bare = re.sub(r"\{.*\}$", "", sample)
    assert name_re.match(bare), f"bad sample name: {sample}"

for family, kind in types.items():
    if kind == "counter":
        assert any(l.startswith(f"{family}_total ") for l in lines), \
            f"counter {family} has no _total sample"
    if kind == "histogram":
        series = buckets.get(family)
        assert series, f"histogram {family} has no _bucket samples"
        assert series[-1][0] == "+Inf", f"{family}: last le must be +Inf"
        counts = [c for _, c in series]
        assert counts == sorted(counts), f"{family}: buckets not cumulative"
        count_line = next(l for l in lines if l.startswith(f"{family}_count "))
        assert int(count_line.split()[1]) == counts[-1], \
            f"{family}: _count != +Inf bucket"

expected = {"archgraph_sweep_cells_completed", "archgraph_sweep_jobs",
            "archgraph_sweep_cell_host_seconds"}
assert expected <= set(types), f"missing families: {expected - set(types)}"
print(f"ok: {len(types)} families lint clean")
EOF

echo "== event log lint (ordered, well-formed lifecycle) =="
python3 - "$OUT_DIR/ci_events.jsonl" <<'EOF'
import json
import sys

events = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert events, "empty event log"
assert events[0]["event"] == "run_started", events[0]
assert events[-1]["event"] == "run_finished", events[-1]
stamps = [e["ts_us"] for e in events]
assert stamps == sorted(stamps), "ts_us must be non-decreasing"
kinds = [e["event"] for e in events]
cells = events[0]["cells"]
assert kinds.count("cell_started") == cells, kinds
assert kinds.count("cell_finished") == cells, kinds
print(f"ok: {len(events)} events, lifecycle complete for {cells} cells")
EOF

echo "== run manifest (written and verifiable) =="
"$BUILD_DIR"/tools/archgraph_sweep verify-manifest \
    "$OUT_DIR/ci.jsonl.manifest.json" "$OUT_DIR/ci.jsonl"
python3 - "$OUT_DIR/ci.jsonl.manifest.json" "$OUT_DIR/ci.jsonl" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
store_ids = {json.loads(l)["run_id"] for l in open(sys.argv[2]) if l.strip()}
cells = doc["cells"]
assert doc["cell_count"] == len(cells), doc["cell_count"]
assert {c["run_id"] for c in cells} == store_ids, "manifest/store coverage"
for c in cells:
    assert len(c["hash"]) == 16 and int(c["hash"], 16) >= 0, c["hash"]
print(f"ok: manifest covers all {len(cells)} store cells, hashes well-formed")
EOF

echo "== run manifest (corrupted hash must fail verify-manifest) =="
python3 - "$OUT_DIR/ci.jsonl.manifest.json" \
    "$OUT_DIR/ci_manifest_corrupt.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
h = doc["cells"][0]["hash"]
doc["cells"][0]["hash"] = ("1" if h[0] == "0" else "0") + h[1:]
json.dump(doc, open(sys.argv[2], "w"))
EOF
if "$BUILD_DIR"/tools/archgraph_sweep verify-manifest \
    "$OUT_DIR/ci_manifest_corrupt.json" "$OUT_DIR/ci.jsonl" \
    >/dev/null 2>&1; then
  echo "error: corrupted manifest hash did not fail verify-manifest" >&2
  exit 1
fi
echo "ok: corrupted manifest hash rejected"

echo "== killed sweep keeps its completed prefix (kill -9 mid-run) =="
# Records are flushed one whole line at a time at the in-order emit point.
# A multi-cell run is killed with SIGKILL once its --out file holds two
# records (the wait polls the file's content, not a timer); every line left
# on disk must parse and equal the same line of an uninterrupted run.
KILL_SPEC="kernel=lr_hj machine=smp:procs={1,2,4,8},l2_kb=512"
KILL_SPEC+=" layout={ordered,random} n=262144 seed={1,2,3,4}"
line_count() { if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi; }
"$BUILD_DIR"/tools/archgraph_sweep run "$KILL_SPEC" --jobs 2 --no-progress \
    --out "$OUT_DIR/kill_full.jsonl" 2>/dev/null
"$BUILD_DIR"/tools/archgraph_sweep run "$KILL_SPEC" --jobs 2 --no-progress \
    --out "$OUT_DIR/kill_cut.jsonl" 2>/dev/null &
KILL_PID=$!
while [ "$(line_count "$OUT_DIR/kill_cut.jsonl")" -lt 2 ] &&
    kill -0 "$KILL_PID" 2>/dev/null; do
  sleep 0.05
done
kill -9 "$KILL_PID" 2>/dev/null || true
KILL_RC=0
{ wait "$KILL_PID"; } 2>/dev/null || KILL_RC=$?
[ "$KILL_RC" -eq 137 ] || {
  echo "error: the sweep was not killed mid-run (exit $KILL_RC)" >&2
  exit 1
}
python3 - "$OUT_DIR/kill_cut.jsonl" "$OUT_DIR/kill_full.jsonl" <<'EOF'
import json
import sys

cut = open(sys.argv[1]).read()
full = open(sys.argv[2]).read().splitlines()
assert cut.endswith("\n"), "torn final line in the killed run's --out"
cut = cut.splitlines()
assert len(cut) >= 2, f"only {len(cut)} records before the kill"
assert len(cut) <= len(full), (len(cut), len(full))
for i, line in enumerate(cut):
    json.loads(line)
    assert line == full[i], f"line {i + 1} differs from the uninterrupted run"
print(f"ok: killed after {len(cut)} of {len(full)} records; every line whole "
      "and equal to the uninterrupted run's")
EOF

echo "== cli host metrics (--json splice and --metrics-out file) =="
"$BUILD_DIR"/tools/archgraph_cli cc --machine mta --random 2048,8192,1 --json \
    --metrics-out "$OUT_DIR/cli_metrics.txt" \
    | python3 -c '
import json, sys
doc = json.load(sys.stdin)
hm = doc["host_metrics"]
assert hm["archgraph_cli_runs_completed"]["value"] == 1, hm
assert hm["archgraph_cli_host_seconds"]["count"] == 1, hm
print("ok: host_metrics spliced into --json summary")
'
tail -1 "$OUT_DIR/cli_metrics.txt" | grep -q '^# EOF$' || {
  echo "error: cli --metrics-out is not OpenMetrics-terminated" >&2
  exit 1
}
echo "ok: cli --metrics-out ends with # EOF"

echo "== frontier gate (corrupted frontier cell must fail) =="
# The frontier grid's own tol-0 gate is archgraph_sweep.golden_frontier in
# ctest; this step shows that gate can fail: one cycle of drift in a copy of
# the baseline is rejected.
python3 - baselines/frontier_quick.jsonl "$OUT_DIR/frontier_corrupt.jsonl" <<'EOF'
import json
import sys

records = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
victim = next(r for r in records if r["kernel"].startswith("color_greedy"))
victim["cycles"] += 1
with open(sys.argv[2], "w") as f:
    for r in records:
        f.write(json.dumps(r) + "\n")
EOF
if "$BUILD_DIR"/tools/archgraph_sweep check baselines/frontier_quick.jsonl \
    --against "$OUT_DIR/frontier_corrupt.jsonl" --tol 0 >/dev/null; then
  echo "error: one-cycle coloring drift did not fail the tol-0 gate" >&2
  exit 1
fi
echo "ok: single-cycle coloring drift rejected at tol 0"

echo "== result validators (corrupted coloring / BFS forest rejected) =="
"$BUILD_DIR"/tests/tests_graph \
    --gtest_filter='IsProperColoring.*:IsBfsForest.*' \
    --gtest_brief=1
echo "ok: is_proper_coloring / is_bfs_forest reject corrupted results"

echo "== profile trace (valid Chrome trace with counter tracks) =="
mkdir -p "$OUT_DIR/traces"
"$BUILD_DIR"/tools/archgraph_sweep run ci --jobs 1 \
    --profile-dir "$OUT_DIR/traces" --out "$OUT_DIR/ci_profiled.jsonl" \
    2>/dev/null
TRACE_COUNT=$(ls "$OUT_DIR"/traces/*.trace.json | wc -l)
[ "$TRACE_COUNT" -eq 2 ] || {
  echo "error: expected 2 per-cell traces, got $TRACE_COUNT" >&2
  exit 1
}
"$BUILD_DIR"/tools/archgraph_cli rank --machine smp:procs=2,l2_kb=64 \
    --n 4096 --layout random --algorithm hj \
    --profile-trace "$OUT_DIR/cli.trace.json" >/dev/null
for trace in "$OUT_DIR"/traces/*.trace.json "$OUT_DIR/cli.trace.json"; do
  python3 - "$trace" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

events = doc["traceEvents"]
counters = {e["name"] for e in events if e.get("ph") == "C"}
assert counters, "no counter tracks in trace"
assert any(e.get("ph") == "X" for e in events), "no span events in trace"
prof = doc["archgraph_profile"]
assert prof["regions"], "no labeled regions in embedded profile"
acct = prof["cycle_accounting"]
assert acct["slots"] == acct["processors"] * acct["cycles"], acct
assert abs(sum(acct["shares"].values()) - 1.0) < 1e-6, acct["shares"]
stacked = [e for e in events
           if e.get("ph") == "C" and e["name"] == "cycle_accounting"]
assert stacked, "no stacked cycle_accounting counter track"
assert all(len(e["args"]) > 1 for e in stacked), \
    "stacked track events should carry one arg per live category"
print(f"ok: {sys.argv[1].rsplit('/', 1)[-1]}: "
      f"{len(counters)} counter tracks, {len(prof['regions'])} regions, "
      f"{len(stacked)} stacked accounting samples")
EOF
done
"$BUILD_DIR"/tools/archgraph_prof_report "$OUT_DIR/cli.trace.json" \
    --csv "$OUT_DIR/cli.csv" >/dev/null
grep -q '^cycle_accounting,' "$OUT_DIR/cli.csv" || {
  echo "error: --csv export lacks cycle_accounting rows" >&2
  exit 1
}
echo "ok: archgraph_prof_report renders the trace (+ --csv export)"

echo "== sweep gate (corrupted baseline must fail) =="
python3 - "$OUT_DIR/ci.jsonl" "$OUT_DIR/ci_corrupt.jsonl" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    records = [json.loads(line) for line in f if line.strip()]
records[0]["cycles"] = int(records[0]["cycles"] * 1.5)
with open(sys.argv[2], "w") as f:
    for r in records:
        f.write(json.dumps(r) + "\n")
EOF
if "$BUILD_DIR"/tools/archgraph_sweep check "$OUT_DIR/ci.jsonl" \
    --against "$OUT_DIR/ci_corrupt.jsonl" >/dev/null; then
  echo "error: corrupted baseline did not fail the gate" >&2
  exit 1
fi
echo "ok: corrupted baseline rejected"

echo "== sweep gate (breakdown drift with identical cycles must fail) =="
python3 - "$OUT_DIR/ci.jsonl" "$OUT_DIR/ci_drift.jsonl" <<'EOF'
import json
import sys

records = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
r = records[0]
keys = [k for k in r if k.startswith("acct_")]
src = max(keys, key=lambda k: r[k])
dst = next(k for k in keys if k != src)
moved = r[src] // 2
r[src] -= moved
r[dst] += moved  # total slots unchanged, so cycles still match exactly
with open(sys.argv[2], "w") as f:
    for rec in records:
        f.write(json.dumps(rec) + "\n")
EOF
if "$BUILD_DIR"/tools/archgraph_sweep check "$OUT_DIR/ci.jsonl" \
    --against "$OUT_DIR/ci_drift.jsonl" >/dev/null; then
  echo "error: breakdown drift with identical cycles did not fail" >&2
  exit 1
fi
"$BUILD_DIR"/tools/archgraph_sweep check "$OUT_DIR/ci.jsonl" \
    --against "$OUT_DIR/ci_drift.jsonl" --breakdown-tol 1.0 >/dev/null
echo "ok: breakdown drift caught; --breakdown-tol 1.0 waives it"

echo "== sweep gate (wrong schema_version must be refused) =="
echo '{"schema_version":999,"run_id":"x"}' > "$OUT_DIR/ci_future.jsonl"
if "$BUILD_DIR"/tools/archgraph_sweep check "$OUT_DIR/ci.jsonl" \
    --against "$OUT_DIR/ci_future.jsonl" >/dev/null 2>&1; then
  echo "error: incompatible schema_version was not refused" >&2
  exit 1
fi
echo "ok: incompatible schema_version refused"

if [ "${ARCHGRAPH_SMOKE_SANITIZE:-0}" != "0" ]; then
  echo "== sanitizer pass (opt-in: ARCHGRAPH_SMOKE_SANITIZE=1) =="
  SAN_DIR="${BUILD_DIR}-san"
  cmake -B "$SAN_DIR" -S . -DARCHGRAPH_SANITIZE=address,undefined >/dev/null
  cmake --build "$SAN_DIR" -j "$(nproc)"
  ctest --test-dir "$SAN_DIR" --output-on-failure -j "$(nproc)"
  "$SAN_DIR"/tools/archgraph_cli cc --random 1024,4096,1 --machine mta \
      >/dev/null
  "$SAN_DIR"/tools/archgraph_cli cc --random 1024,4096,1 --machine smp \
      >/dev/null
  echo "ok: ASan+UBSan build, tests, and both machines clean"
fi

echo "== smoke passed =="
