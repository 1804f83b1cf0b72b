#!/bin/sh
# Runs the real-runtime fast-path microbenchmarks (internal/rtbench via the
# wrappers in bench_test.go) as five interleaved -count=1 passes and distills
# the output into BENCH_rt.json, one entry per benchmark run, so successive
# PRs can diff allocs/op and ns/op over time (EXPERIMENTS.md records the
# notable befores/afters). Interleaved passes — not one -count=5 run — so
# that each pass measures a base/armed overhead pair (SpawnSync vs its
# Traced/Profiled/FaultHook/Supervised variants) seconds apart: with
# -count=5 the armed runs land minutes after their baseline and slow
# machine-wide drift shows up as phantom overhead in the paired deltas.
# The overhead entries then take the MEDIAN of the per-pass armed/base
# ratios, not a ratio of means: on a noisy shared machine a single burst
# of antagonist load can double one run's ns/op, and a mean lets that one
# outlier swing the recorded overhead past its gate while the median
# discards whichever passes the burst hit.
#
# Before benchmarking it runs cablint -json over the repository and folds
# the diagnostic counts into BENCH_lint.json: a perf number recorded while
# a hot-path invariant is broken is not comparable, so any violation
# aborts the run.
#
# Usage: scripts/bench.sh [output.json]   (default: BENCH_rt.json)
#        scripts/bench.sh --check
# Any other flag, or more than one argument, prints the usage and exits 2.
#
# --check is the regression gate: it benchmarks into a temp file, compares
# the fresh medians against the committed BENCH_rt.json, and exits nonzero if
# SpawnSync ns/op or JobThroughput jobs/sec regressed by more than 25% —
# the two headline numbers this repo's perf work is anchored to.
set -eu

cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench.sh [output.json]" >&2
    echo "       scripts/bench.sh --check" >&2
    exit 2
}

[ $# -le 1 ] || usage
check=0
out="BENCH_rt.json"
case "${1:-}" in
--check) check=1; out="$(mktemp --suffix=.json)" ;;
-*) usage ;;
?*) out="$1" ;;
esac
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Static-analysis gate: cablint must be clean before perf is measured.
go build -o bin/cablint ./cmd/cablint
if ! ./bin/cablint -json ./... > BENCH_lint.json; then
    echo "cablint found violations (see BENCH_lint.json); not benchmarking a broken invariant" >&2
    exit 1
fi
echo "cablint clean: $(python3 -c "import json; c = json.load(open('BENCH_lint.json'))['counts']; print(', '.join(f'{k}={v}' for k, v in sorted(c.items())))")"

for pass in 1 2 3 4 5; do
    go test -run '^$' -bench 'BenchmarkSpawnSync$|BenchmarkSpawnSyncTraced$|BenchmarkSpawnSyncProfiled$|BenchmarkSpawnSyncFaultHook$|BenchmarkSpawnSyncSupervised$|BenchmarkStealThroughput$|BenchmarkStealBatchTiered$|BenchmarkInterPool$|BenchmarkJobThroughput$|BenchmarkJobSubmit$|BenchmarkSubmitBatchLatency$|BenchmarkParallelFor$|BenchmarkParallelForFine$|BenchmarkParallelForCoarse$|BenchmarkSamplesort$|BenchmarkHashJoin$' \
        -benchmem -count=1 .
done | tee "$raw"

awk '
# median of series[1..n] (insertion sort; n is tiny).
function median(series, n,    i, j, t, s) {
    for (i = 1; i <= n; i++) s[i] = series[i]
    for (i = 2; i <= n; i++) {
        t = s[i]
        for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
        s[j + 1] = t
    }
    if (n % 2) return s[(n + 1) / 2]
    return (s[n / 2] + s[n / 2 + 1]) / 2
}
# Median per-pass armed/base ns ratio, as an overhead percentage. Pass i
# of the benchmark loop contributes the i-th run of each name, so the
# pairing is by position.
function overhead_pct(base, armed,    i, n, r) {
    n = runs[base] < runs[armed] ? runs[base] : runs[armed]
    for (i = 1; i <= n; i++) r[i] = vals[armed, i] / vals[base, i]
    return (median(r, n) - 1) * 100
}
# Median ns/op of one benchmark series (the representative level reported
# next to the paired overhead).
function median_ns(name,    i, n, s) {
    n = runs[name]
    for (i = 1; i <= n; i++) s[i] = vals[name, i]
    return median(s, n)
}
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)          # strip the GOMAXPROCS suffix if present
    iters = $2
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 3; i < NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op") ns = v
        else if (u == "B/op") bytes = v
        else if (u == "allocs/op") allocs = v
        else {
            gsub(/\//, "_per_", u)
            extra = extra sprintf(", \"%s\": %s", u, v)
        }
    }
    if (ns != "") { runs[name]++; vals[name, runs[name]] = ns }
    if (!first) print ","
    first = 0
    printf "  {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", \
        name, iters, ns, bytes, allocs, extra
}
END {
    # Armed-tracing overhead: median per-pass SpawnSyncTraced/SpawnSync ratio.
    if (runs["SpawnSync"] > 0 && runs["SpawnSyncTraced"] > 0) {
        printf ",\n  {\"name\": \"TraceOverhead\", \"base_ns_per_op\": %.1f, \"traced_ns_per_op\": %.1f, \"trace_overhead_pct\": %.1f}", \
            median_ns("SpawnSync"), median_ns("SpawnSyncTraced"), overhead_pct("SpawnSync", "SpawnSyncTraced")
    }
    # Armed-profiling overhead: time-in-state and steal-flow accounting
    # armed vs the plain fast path.
    if (runs["SpawnSync"] > 0 && runs["SpawnSyncProfiled"] > 0) {
        printf ",\n  {\"name\": \"ProfileOverhead\", \"base_ns_per_op\": %.1f, \"profiled_ns_per_op\": %.1f, \"profile_overhead_pct\": %.1f}", \
            median_ns("SpawnSync"), median_ns("SpawnSyncProfiled"), overhead_pct("SpawnSync", "SpawnSyncProfiled")
    }
    # Fault-hook seam overhead: no-op hook + tight watchdog vs nil hook.
    if (runs["SpawnSync"] > 0 && runs["SpawnSyncFaultHook"] > 0) {
        printf ",\n  {\"name\": \"FaultHookOverhead\", \"base_ns_per_op\": %.1f, \"hooked_ns_per_op\": %.1f, \"fault_hook_overhead_pct\": %.1f}", \
            median_ns("SpawnSync"), median_ns("SpawnSyncFaultHook"), overhead_pct("SpawnSync", "SpawnSyncFaultHook")
    }
    # Supervision overhead: watchdog ticking and supervisor armed but never
    # firing vs the plain fast path.
    if (runs["SpawnSync"] > 0 && runs["SpawnSyncSupervised"] > 0) {
        printf ",\n  {\"name\": \"SupervisorOverhead\", \"base_ns_per_op\": %.1f, \"supervised_ns_per_op\": %.1f, \"supervisor_overhead_pct\": %.1f}", \
            median_ns("SpawnSync"), median_ns("SpawnSyncSupervised"), overhead_pct("SpawnSync", "SpawnSyncSupervised")
    }
    print ""; print "]"
}
' "$raw" > "$out"

echo "wrote $out"

if [ "$check" = 1 ]; then
    status=0
    python3 - "$out" <<'EOF' || status=$?
import json, sys

TOLERANCE = 0.25  # fail on >25% regression

def median(entries, name, key):
    # Median, not mean: one antagonist-load burst on a shared machine can
    # double a single run's ns/op, and with 5 samples that one outlier
    # moves a mean past the gate.
    vals = sorted(e[key] for e in entries if e["name"] == name and key in e)
    if not vals:
        sys.exit(f"regression check: no {key} samples for {name}")
    n = len(vals)
    return vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2

fresh = json.load(open(sys.argv[1]))
base = json.load(open("BENCH_rt.json"))

failed = False
# SpawnSync: lower ns/op is better.
b, f = median(base, "SpawnSync", "ns_per_op"), median(fresh, "SpawnSync", "ns_per_op")
pct = (f - b) * 100 / b
print(f"SpawnSync ns/op: baseline {b:.1f}, fresh {f:.1f} ({pct:+.1f}%)")
if f > b * (1 + TOLERANCE):
    print(f"FAIL: SpawnSync regressed more than {TOLERANCE:.0%}")
    failed = True
# JobThroughput: higher jobs/sec is better.
b, f = median(base, "JobThroughput", "jobs_per_sec"), median(fresh, "JobThroughput", "jobs_per_sec")
pct = (f - b) * 100 / b
print(f"JobThroughput jobs/sec: baseline {b:.0f}, fresh {f:.0f} ({pct:+.1f}%)")
if f < b * (1 - TOLERANCE):
    print(f"FAIL: JobThroughput regressed more than {TOLERANCE:.0%}")
    failed = True
# Samplesort: absolute floor, not a relative one — the data-parallel
# subsystem must beat serial sort.Slice on the 4-worker bench machine.
f = median(fresh, "Samplesort", "speedup_vs_sortslice")
print(f"Samplesort speedup vs sort.Slice: {f:.2f}x")
if f < 1.0:
    print("FAIL: samplesort slower than serial sort.Slice")
    failed = True
# Armed profiling: the time-in-state / steal-flow stamps must stay under
# 10% on the SpawnSync fast path (the X-ray acceptance bound).
f = median(fresh, "ProfileOverhead", "profile_overhead_pct")
print(f"Profiling overhead on SpawnSync: {f:+.1f}%")
if f > 10.0:
    print("FAIL: armed profiling costs more than 10% on SpawnSync")
    failed = True
# Armed supervision: the generation fence and atomic deque indirection
# must stay under 5% on the SpawnSync fast path (the self-healing
# acceptance bound; the supervisor scan itself runs off-thread).
f = median(fresh, "SupervisorOverhead", "supervisor_overhead_pct")
print(f"Supervision overhead on SpawnSync: {f:+.1f}%")
if f > 5.0:
    print("FAIL: armed supervision costs more than 5% on SpawnSync")
    failed = True

sys.exit(1 if failed else 0)
EOF
    rm -f "$out"
    if [ "$status" != 0 ]; then
        echo "bench --check: regression gate FAILED" >&2
        exit "$status"
    fi
    echo "bench --check: within tolerance"
fi
