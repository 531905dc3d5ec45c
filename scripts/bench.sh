#!/usr/bin/env bash
# bench.sh — run the numeric-kernel micro-benchmarks plus the service-level
# throughput benchmark and record the results as JSON, extending the
# performance trajectory PR over PR. Also diffs two recorded baselines.
#
# Usage:
#   scripts/bench.sh                 # default suite -> BENCH_PR10.json
#   scripts/bench.sh 'Benchmark.*'   # custom micro pattern (e.g. the full
#                                    # figure suite; slow)
#   scripts/bench.sh PATTERN OUT     # custom pattern and output file
#   scripts/bench.sh -compare OLD.json NEW.json
#                                    # diff two baselines: prints the ns/op
#                                    # and allocs/op ratios per benchmark
#                                    # present in both and exits nonzero if
#                                    # either regressed by more than 20%
#
# Every run starts with BenchmarkCalibration, a fixed integer kernel whose
# ns/op tracks only the machine's single-thread speed. -compare uses the
# two files' calibration numbers to normalize every ns/op ratio (ratio
# divided by the machine ratio), so baselines recorded on different or
# noisy hardware stay interpretable: the time REGRESSION gate fires on the
# normalized ratio when both files carry a calibration, on the raw ratio
# otherwise. Allocation counts are machine-independent, so the allocs/op
# gate always fires on the raw ratio — a >20% allocs_per_op growth is a
# regression no matter what hardware recorded the baselines.
#
# Three benchmark groups run:
#   - micro (root package): sampling, DP solve (serial / parallel / long
#     job / incremental), Monte Carlo kernels, and the online model registry
#     (observation ingest into a hot drift detector, model_ref resolution)
#   - service (internal/serve): end-to-end sessions/sec through the
#     multi-session manager at parallelism 1 vs GOMAXPROCS, the same
#     workload through the sharded router at 1 vs 4 executor shards
#     (persistence on, one WAL stream per shard), the identical workload
#     with the second shard behind a loopback subprocess (the shard
#     protocol's transport cost, vs Sharded1's in-process baseline), the
#     process-wide schedule cache's hit rate, and the cold 3x3x2 sweep
#     (18 sessions against an empty cache; dp_solves/op shows the planner
#     singleflight collapsing the cells onto ~one DP build)
#   - telemetry (internal/obs): the per-event overhead of the metric
#     registry and span ring the serving tier now feeds on every request
#     (counter inc, histogram observe, span emit)
#   - durability (internal/serve): store replay (sessions restored/sec
#     when a manager boots from a snapshot+WAL data dir), the same boot
#     spread over four shard stores (Router.Restore parses and rebuilds
#     shard-parallel), and SSE fan-out (publish-side offers/sec to
#     1/16/256 subscribers)
#
# The JSON maps benchmark name -> {ns_per_op, bytes_per_op, allocs_per_op}
# plus any custom metrics the benchmark reports (sessions_per_sec,
# cache_hit_rate, sessions_restored_per_sec, offers_per_sec, dp_solves_per_op).
set -euo pipefail
cd "$(dirname "$0")/.."

# compare OLD NEW: diff ns/op of benchmarks present in both files.
compare() {
    old="$1" new="$2"
    awk -v oldfile="$old" -v newfile="$new" '
    function parse(file, dest, destalloc,    line, name, v) {
        while ((getline line < file) > 0) {
            if (match(line, /"Benchmark[^"]*"/)) {
                name = substr(line, RSTART + 1, RLENGTH - 2)
                if (match(line, /"ns_per_op": *[0-9.eE+-]+/)) {
                    v = substr(line, RSTART, RLENGTH)
                    sub(/"ns_per_op": */, "", v)
                    dest[name] = v + 0
                }
                if (match(line, /"allocs_per_op": *[0-9.eE+-]+/)) {
                    v = substr(line, RSTART, RLENGTH)
                    sub(/"allocs_per_op": */, "", v)
                    destalloc[name] = v + 0
                }
            }
        }
        close(file)
    }
    BEGIN {
        parse(oldfile, oldns, oldal)
        parse(newfile, newns, newal)
        cal = 0
        if (("BenchmarkCalibration" in oldns) && ("BenchmarkCalibration" in newns) && oldns["BenchmarkCalibration"] > 0) {
            cal = newns["BenchmarkCalibration"] / oldns["BenchmarkCalibration"]
            printf "calibration: %.0f -> %.0f ns/op (machine ratio %.2fx); gating on normalized ratios\n", \
                oldns["BenchmarkCalibration"], newns["BenchmarkCalibration"], cal
        } else {
            print "calibration: absent from one baseline; gating on raw ratios"
        }
        printf "%-42s %14s %14s %8s %8s %12s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "norm", "allocs"
        for (name in oldns) {
            if (!(name in newns)) continue
            ratio = newns[name] / oldns[name]
            norm = (cal > 0 ? ratio / cal : ratio)
            flag = ""
            if (name != "BenchmarkCalibration" && norm > 1.20) { flag = "  REGRESSION"; bad++ }
            # Allocation counts are deterministic per machine-independent
            # code path: gate on the raw ratio, no calibration involved.
            alstr = ""
            if ((name in oldal) && (name in newal) && oldal[name] > 0) {
                alratio = newal[name] / oldal[name]
                alstr = sprintf("%11.2fx", alratio)
                if (name != "BenchmarkCalibration" && alratio > 1.20) {
                    flag = flag "  ALLOC-REGRESSION"; badal++
                }
            }
            printf "%-42s %14.0f %14.0f %7.2fx %7.2fx %s%s\n", name, oldns[name], newns[name], ratio, norm, alstr, flag
            n++
        }
        if (n == 0) { print "no common benchmarks between the two files" > "/dev/stderr"; exit 2 }
        if (bad > 0) printf "%d benchmark(s) regressed by >20%% normalized ns/op\n", bad > "/dev/stderr"
        if (badal > 0) printf "%d benchmark(s) regressed by >20%% allocs/op\n", badal > "/dev/stderr"
        if (bad + badal > 0) exit 1
    }'
}

if [ "${1:-}" = "-compare" ]; then
    if [ $# -ne 3 ]; then
        echo "usage: scripts/bench.sh -compare OLD.json NEW.json" >&2
        exit 2
    fi
    compare "$2" "$3"
    exit $?
fi

pattern="${1:-BenchmarkSample|BenchmarkDPSolve|BenchmarkMCMakespan|BenchmarkRegistryIngest|BenchmarkModelResolve}"
out="${2:-BENCH_PR10.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# The calibration kernel always runs, whatever the pattern, so every
# recorded baseline carries the machine-speed reference -compare needs.
go test -run '^$' -bench '^BenchmarkCalibration$' . | tee "$raw"
go test -run '^$' -bench "$pattern" -benchmem . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkServiceSessions|BenchmarkStoreRestore|BenchmarkSSEFanout|BenchmarkColdSweep' -benchmem ./internal/serve | tee -a "$raw"
go test -run '^$' -bench '^BenchmarkObsOverhead$' -benchmem ./internal/obs | tee -a "$raw"

awk -v out="$out" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    # Dedupe: a custom pattern matching BenchmarkCalibration would
    # otherwise record it twice (it always runs first).
    if (!(name in seenname)) { seenname[name] = 1; order[n++] = name }
    # Fields after the iteration count come in (value, unit) pairs; map the
    # unit to a JSON key so custom b.ReportMetric metrics are captured too.
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        if (unit == "B_per_op") unit = "bytes_per_op"
        metrics[name, unit] = $i
        if (!((name, unit) in seenkey)) {
            seenkey[name, unit] = 1
            keys[name] = keys[name] (keys[name] == "" ? "" : " ") unit
        }
    }
}
/^(goos|goarch|cpu):/ { meta[$1] = $2 }
END {
    printf "{\n" > out
    printf "  \"goos\": \"%s\",\n", meta["goos:"] >> out
    printf "  \"goarch\": \"%s\",\n", meta["goarch:"] >> out
    printf "  \"benchmarks\": {\n" >> out
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    \"%s\": {", name >> out
        m = split(keys[name], ks, " ")
        for (j = 1; j <= m; j++) {
            printf "%s\"%s\": %s", (j > 1 ? ", " : ""), ks[j], metrics[name, ks[j]] >> out
        }
        printf "}%s\n", (i < n - 1 ? "," : "") >> out
    }
    printf "  }\n}\n" >> out
}
' "$raw"

echo "wrote $out"
