#!/usr/bin/env bash
# CI smoke pass: build, run the unit/integration tests, then run every
# bench in quick mode with two sweep worker threads so the parallel
# harness path is exercised on every change.
#
# Usage: tools/ci_smoke.sh [build-dir]     (default: build)
# Env:   SCSQ_TSAN=1 adds -DSCSQ_TSAN=ON (ThreadSanitizer build).
#        SCSQ_ASAN=1 adds -DSCSQ_ASAN=ON (AddressSanitizer build; the
#        pooled frame/marshal data plane recycles buffers aggressively,
#        so transport tests under ASAN guard against use-after-recycle).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
CMAKE_ARGS=()
if [[ "${SCSQ_TSAN:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DSCSQ_TSAN=ON)
fi
if [[ "${SCSQ_ASAN:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DSCSQ_ASAN=ON)
fi

cmake -B "$BUILD" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD" -j"$(nproc)"
(cd "$BUILD" && ctest --output-on-failure -j"$(nproc)")

export SCSQ_BENCH_QUICK=1
export SCSQ_BENCH_THREADS=2

TMPD=$(mktemp -d)
trap 'rm -rf "$TMPD"' EXIT

# validate_json FILE — every line (JSONL) or the whole document must be
# valid JSON; metrics/trace exports are hand-rolled, so check them here.
validate_json() {
  if python3 -m json.tool "$1" > /dev/null 2>&1; then
    return 0
  fi
  # Not a single document: require every non-empty line to parse (JSONL).
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
for n, line in enumerate(open(path), 1):
    if not line.strip():
        continue
    try:
        json.loads(line)
    except json.JSONDecodeError as e:
        sys.exit(f"{path}:{n}: invalid JSON: {e}")
EOF
}

for b in fig6_p2p fig8_merge fig15_inbound \
         ablate_coproc ablate_dblbuf ablate_nodesel ablate_smartsel \
         linear_road; do
  echo "== bench_$b (quick, 2 threads) =="
  SCSQ_METRICS_OUT="$TMPD/$b.jsonl" "$BUILD/bench/bench_$b" > /dev/null
  if [[ -f "$TMPD/$b.jsonl" ]]; then
    validate_json "$TMPD/$b.jsonl"
    echo "   metrics JSONL ok ($(wc -l < "$TMPD/$b.jsonl") records)"
  fi
done

# Kernel microbenchmarks: one fast shot each, just to prove they run.
"$BUILD/bench/bench_kernels" --benchmark_filter='BM_(SimulatorEventThroughput|WaitQueueWakeup|ChannelPingPong)' > /dev/null

# Shell smoke: trace + \metrics snapshot on a tiny query; both exports
# must be valid JSON / contain the expected sections.
echo "== scsql_shell trace + metrics =="
echo "select extract(b) from sp a, sp b
 where b=sp(streamof(count(extract(a))),'bg',0)
 and a=sp(gen_array(100000,2),'bg',1);
\\metrics" | SCSQ_TRACE="$TMPD/shell_trace.json" "$BUILD/tools/scsql_shell" > "$TMPD/shell_out.txt"
validate_json "$TMPD/shell_trace.json"
grep -q '# TYPE' "$TMPD/shell_out.txt" || { echo "missing \\metrics output"; exit 1; }

# Profiler smoke: SCSQ_PROFILE_OUT must leave bench stdout byte-identical,
# produce valid JSONL, and hold the attribution invariant (attributed
# seconds sum to elapsed) for every sweep point.
echo "== bench_fig6_p2p profile capture =="
"$BUILD/bench/bench_fig6_p2p" > "$TMPD/fig6_plain.txt" 2> /dev/null
SCSQ_PROFILE_OUT="$TMPD/fig6_profile.jsonl" \
  "$BUILD/bench/bench_fig6_p2p" > "$TMPD/fig6_profiled.txt" 2> /dev/null
cmp "$TMPD/fig6_plain.txt" "$TMPD/fig6_profiled.txt" || {
  echo "SCSQ_PROFILE_OUT changed bench stdout"; exit 1; }
validate_json "$TMPD/fig6_profile.jsonl"
echo "   profile JSONL ok ($(wc -l < "$TMPD/fig6_profile.jsonl") records), stdout byte-identical"
"$BUILD/tools/metrics_diff" --check-profile "$TMPD/fig6_profile.jsonl"

# Batch-execution invariance: the fig8 quick tables must be byte-
# identical with batching disabled (SCSQ_BATCH_SIZE=1, the exact
# per-item path) and at the default batch size. Only the [harness]
# banner line may differ — it reports host wall clock.
echo "== bench_fig8_merge batch invariance =="
SCSQ_BATCH_SIZE=1 "$BUILD/bench/bench_fig8_merge" 2> /dev/null \
  | grep -v '^\[harness\]' > "$TMPD/fig8_batch1.txt"
"$BUILD/bench/bench_fig8_merge" 2> /dev/null \
  | grep -v '^\[harness\]' > "$TMPD/fig8_batchdef.txt"
cmp "$TMPD/fig8_batch1.txt" "$TMPD/fig8_batchdef.txt" || {
  echo "SCSQ_BATCH_SIZE changed bench output"; exit 1; }
echo "   fig8 tables byte-identical at SCSQ_BATCH_SIZE=1 vs default"

# Shell EXPLAIN ANALYZE smoke on the Fig. 8 merge query: the report must
# show the plan tree, a critical path, and a 100% attribution total.
echo "== scsql_shell explain analyze =="
echo "\\explain analyze select extract(c) from sp a, sp b, sp c
 where c=sp(count(merge({a,b})), 'bg',0)
 and a=sp(gen_array(100000,2),'bg',1)
 and b=sp(gen_array(100000,2),'bg',2);" \
  | "$BUILD/tools/scsql_shell" > "$TMPD/explain_out.txt"
grep -q 'EXPLAIN ANALYZE' "$TMPD/explain_out.txt" || { echo "missing EXPLAIN ANALYZE header"; exit 1; }
grep -q 'critical path:' "$TMPD/explain_out.txt" || { echo "missing critical path"; exit 1; }
grep -Eq 'total +.* 100\.0%' "$TMPD/explain_out.txt" || { echo "attribution does not total 100%"; exit 1; }

# Data-plane microbenchmarks: marshal round-trips and the frame cutter
# must at least run to completion on every change (pool + flat writer
# smoke; perf is tracked separately via BENCH_kernels.json).
echo "== bench_kernels marshal/frame smoke =="
"$BUILD/bench/bench_kernels" --benchmark_filter='BM_(MarshalRoundTrip|FrameCutterCut|FramePoolRecycle|OperatorPipeline)' > /dev/null

# Telemetry-sampler smoke: arming SCSQ_SAMPLE_INTERVAL must leave bench
# stdout byte-identical (the sampler's zero-duration ticks may not
# perturb a single simulated second), the SCSQ_TIMESERIES_OUT JSONL must
# validate, and the --timeseries analyzer must hold its exit-code
# contract: 0 on a clean analyze and on a self-diff, 1 on an injected
# steady-rate regression.
echo "== telemetry sampler time series =="
SCSQ_SAMPLE_INTERVAL=0.05 SCSQ_TIMESERIES_OUT="$TMPD/fig6_ts.jsonl" \
  "$BUILD/bench/bench_fig6_p2p" 2> /dev/null > "$TMPD/fig6_sampled.txt"
cmp "$TMPD/fig6_plain.txt" "$TMPD/fig6_sampled.txt" || {
  echo "SCSQ_SAMPLE_INTERVAL changed bench stdout"; exit 1; }
validate_json "$TMPD/fig6_ts.jsonl"
echo "   stdout byte-identical sampler on/off;" \
     "JSONL ok ($(wc -l < "$TMPD/fig6_ts.jsonl") windows)"
"$BUILD/tools/metrics_diff" --timeseries "$TMPD/fig6_ts.jsonl" > /dev/null
"$BUILD/tools/metrics_diff" --timeseries "$TMPD/fig6_ts.jsonl" "$TMPD/fig6_ts.jsonl" > /dev/null
cat > "$TMPD/ts_seed.jsonl" <<'EOF'
{"point":0,"window":0,"t_start":0,"t_end":1,"counters":{"transport.link.bytes{src=a}":{"delta":1000,"rate":1000}}}
{"point":0,"window":1,"t_start":1,"t_end":2,"counters":{"transport.link.bytes{src=a}":{"delta":1000,"rate":1000}}}
{"point":0,"window":2,"t_start":2,"t_end":3,"counters":{"transport.link.bytes{src=a}":{"delta":1000,"rate":1000}}}
EOF
sed 's/1000/400/g' "$TMPD/ts_seed.jsonl" > "$TMPD/ts_regressed.jsonl"
rc=0
"$BUILD/tools/metrics_diff" --timeseries \
  "$TMPD/ts_seed.jsonl" "$TMPD/ts_regressed.jsonl" > /dev/null || rc=$?
[[ "$rc" == "1" ]] || { echo "injected time-series regression not flagged (exit $rc)"; exit 1; }
echo "   --timeseries: clean analyze + self-diff exit 0, injected regression exit 1"

# Introspection-monitor smoke: a continuous SCSQL threshold monitor over
# system.metrics must (a) leave bench stdout byte-identical — monitors
# run as zero-duration read-only callbacks at sampler window boundaries
# (DESIGN.md §5.8) — including at SCSQ_BATCH_SIZE=1, (b) emit at least
# one alert to SCSQ_MONITOR_OUT, and (c) produce a
# JSONL alert stream that validates under metrics_diff --alerts.
echo "== introspection monitor alerts =="
MONITOR_Q="above(sum(system.rates('transport.link.bytes')), 1)"
SCSQ_SAMPLE_INTERVAL=0.05 SCSQ_MONITOR="$MONITOR_Q" \
  SCSQ_MONITOR_OUT="$TMPD/fig6_alerts.jsonl" \
  "$BUILD/bench/bench_fig6_p2p" 2> /dev/null > "$TMPD/fig6_monitored.txt"
cmp "$TMPD/fig6_plain.txt" "$TMPD/fig6_monitored.txt" || {
  echo "SCSQ_MONITOR changed bench stdout"; exit 1; }
[[ -s "$TMPD/fig6_alerts.jsonl" ]] || { echo "monitor emitted no alerts"; exit 1; }
validate_json "$TMPD/fig6_alerts.jsonl"
SCSQ_BATCH_SIZE=1 \
  "$BUILD/bench/bench_fig6_p2p" 2> /dev/null > "$TMPD/fig6_b1.txt"
SCSQ_BATCH_SIZE=1 SCSQ_SAMPLE_INTERVAL=0.05 SCSQ_MONITOR="$MONITOR_Q" \
  "$BUILD/bench/bench_fig6_p2p" 2> /dev/null > "$TMPD/fig6_b1_mon.txt"
cmp "$TMPD/fig6_b1.txt" "$TMPD/fig6_b1_mon.txt" || {
  echo "SCSQ_MONITOR x SCSQ_BATCH_SIZE changed bench stdout"; exit 1; }
"$BUILD/tools/metrics_diff" --alerts "$TMPD/fig6_alerts.jsonl"
echo "   stdout byte-identical monitor on/off (also at batch=1);" \
     "$(wc -l < "$TMPD/fig6_alerts.jsonl") alert(s) validated"

# Pending-event-set invariance: the ladder queue (the default) and the
# binary-heap reference behind SCSQ_EVENT_QUEUE=heap must dispatch in
# the identical (time, seq) order, so the fig6 and fig8 quick tables are
# byte-identical across queue modes.
echo "== SCSQ_EVENT_QUEUE heap-vs-ladder invariance =="
SCSQ_EVENT_QUEUE=heap "$BUILD/bench/bench_fig6_p2p" 2> /dev/null > "$TMPD/fig6_heap.txt"
cmp "$TMPD/fig6_plain.txt" "$TMPD/fig6_heap.txt" || {
  echo "SCSQ_EVENT_QUEUE changed fig6 bench output"; exit 1; }
SCSQ_EVENT_QUEUE=heap "$BUILD/bench/bench_fig8_merge" 2> /dev/null \
  | grep -v '^\[harness\]' > "$TMPD/fig8_heap.txt"
cmp "$TMPD/fig8_batchdef.txt" "$TMPD/fig8_heap.txt" || {
  echo "SCSQ_EVENT_QUEUE changed fig8 bench output"; exit 1; }
echo "   fig6/fig8 tables byte-identical heap vs ladder"

# Benchmark smoke: perfbench builds its own tree from src/ and drives the
# library only through public entry points (EntryView, funcs::file_lines,
# ...), so an API change that breaks it shows here, not at benchmark
# time. One second per workload; the last stdout line must report every
# result correct and no failed statement. perfbench refuses to start
# with any SCSQ_* variable set, so it runs with them unset.
echo "== perfbench paper_script + fig15_inbound (1 s each) =="
for w in paper_script fig15_inbound; do
  (
    for v in $(compgen -e | grep '^SCSQ_' || true); do unset "$v"; done
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0
  ) > "$TMPD/perfbench_$w.out" 2> "$TMPD/perfbench_$w.err" || {
    cat "$TMPD/perfbench_$w.err"; echo "perfbench $w failed"; exit 1; }
  tail -n 1 "$TMPD/perfbench_$w.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench %s: correct=%s failed=%s" % (sys.argv[1], r.get("correct"), r.get("failed")))
' "$w"
  echo "   $w: correct, 0 failed"
done

# TSAN pass over the code that shares state across sweep worker threads:
# the coroutine-frame pool's chunk registry (donated free lists, see
# sim/task.hpp), the differential queue fuzz, and the monitor alert
# files' truncate-once side-channel mutex. Skipped when the toolchain
# cannot link a trivial -fsanitize=thread program.
if echo 'int main(){}' | c++ -x c++ -fsanitize=thread -o /dev/null - 2> /dev/null; then
  echo "== sweep/queue/monitor tests under ThreadSanitizer =="
  cmake -B "$BUILD-tsan" -S . -DSCSQ_TSAN=ON > /dev/null
  cmake --build "$BUILD-tsan" -j"$(nproc)" \
    --target sweep_test monitor_test sim_queue_fuzz_test > /dev/null
  "$BUILD-tsan/tests/sweep_test"
  "$BUILD-tsan/tests/sim_queue_fuzz_test"
  "$BUILD-tsan/tests/monitor_test"
else
  echo "== skipping TSAN pass (toolchain lacks ThreadSanitizer) =="
fi

# ASAN pass over the transport tests: the pooled frame/marshal data
# plane recycles buffers aggressively, so guard against use-after-
# recycle and buffer overruns. Skipped when the toolchain cannot link
# a trivial -fsanitize=address program (e.g. libasan not installed).
if echo 'int main(){}' | c++ -x c++ -fsanitize=address -o /dev/null - 2> /dev/null; then
  echo "== transport, batch pipeline and registry tests under AddressSanitizer =="
  cmake -B "$BUILD-asan" -S . -DSCSQ_ASAN=ON > /dev/null
  cmake --build "$BUILD-asan" -j"$(nproc)" \
    --target transport_test monitor_test bench_kernels \
    sim_queue_fuzz_test properties_test obs_test golden_metrics_test > /dev/null
  "$BUILD-asan/tests/transport_test"
  # The metrics registry hands out pointers into its entry, name and
  # label stores; run its tests and the golden exports under ASAN.
  "$BUILD-asan/tests/obs_test"
  (cd "$BUILD-asan/tests" && ./golden_metrics_test)
  # Ladder-queue differential fuzz + the zero-alloc frame-pool property
  # under ASAN/LSAN: rung/bottom recycling and coroutine-frame reuse must
  # be clean (no use-after-recycle, no leaked chunks at exit).
  "$BUILD-asan/tests/sim_queue_fuzz_test"
  "$BUILD-asan/tests/properties_test" --gtest_filter='CoroPool.*'
  # Monitor plans are driven by manual coroutine resumption (release/
  # resume/destroy); run the monitor suite under ASAN to catch frame
  # lifetime mistakes.
  "$BUILD-asan/tests/monitor_test"
  # Batched operator pulls recycle ItemBatch slots across frames; run the
  # pipeline microbenches under ASAN to catch use-after-recycle there.
  "$BUILD-asan/bench/bench_kernels" \
    --benchmark_filter='BM_OperatorPipeline' --benchmark_min_time=0.01 > /dev/null
else
  echo "== skipping ASAN pass (toolchain lacks AddressSanitizer) =="
fi

# UBSAN pass over the marshal/transport data plane, the network models
# and the per-frame allocation test; SCSQ_UBSAN builds with
# -fno-sanitize-recover, so the first report fails the run. Skipped when
# the toolchain cannot link a trivial -fsanitize=undefined program (e.g.
# libubsan not installed).
if echo 'int main(){}' | c++ -x c++ -fsanitize=undefined -o /dev/null - 2> /dev/null; then
  echo "== transport/properties/net/alloc tests under UndefinedBehaviorSanitizer =="
  cmake -B "$BUILD-ubsan" -S . -DSCSQ_UBSAN=ON > /dev/null
  cmake --build "$BUILD-ubsan" -j"$(nproc)" \
    --target transport_test properties_test net_test alloc_test > /dev/null
  "$BUILD-ubsan/tests/transport_test"
  "$BUILD-ubsan/tests/properties_test"
  "$BUILD-ubsan/tests/net_test"
  "$BUILD-ubsan/tests/alloc_test"
else
  echo "== skipping UBSAN pass (toolchain lacks UndefinedBehaviorSanitizer) =="
fi

# Bench baseline self-check: committed "new" numbers must not regress
# more than 20% against their recorded seeds.
"$BUILD/tools/metrics_diff" --check BENCH_kernels.json

echo "ci_smoke: OK"
