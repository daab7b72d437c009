#!/bin/sh
# benchgate.sh — the observability overhead gate. The event bus is
# designed so an unobserved run pays one nil-check per publish site and
# allocates nothing; this gate holds that promise two ways:
#
#   1. allocs/op ceiling (deterministic): BenchmarkPerfMemFullDataflow
#      executes ~294k guest instructions per op, so even one stray
#      allocation per event site blows the count by orders of
#      magnitude. This catches hot-path allocation regressions exactly,
#      independent of host load.
#   2. guest-instrs/s floor (wall clock): the best of several short
#      runs must stay above the recorded benchgate baseline minus the
#      tolerance. The baseline is deliberately conservative (see the
#      "benchgate" section of BENCH_<date>.json) because shared hosts
#      jitter far more than a few percent; this tier catches gross
#      regressions such as an unconditional publish on the hot path.
#      For precise deltas, A/B the benchmark against main on a quiet
#      machine with HTH_BENCHGATE_BASELINE/HTH_BENCHGATE_TOLERANCE.
#
# Knobs (environment):
#   HTH_BENCHGATE_BASELINE   baseline guest-instrs/s (default: the
#                            benchgate.baseline_instrs_per_sec value of
#                            the newest BENCH_*.json)
#   HTH_BENCHGATE_TOLERANCE  allowed regression, percent (default 10)
#   HTH_BENCHGATE_MAXALLOCS  allocs/op ceiling (default 360)
#   HTH_BENCHGATE_RUNS       benchmark repetitions; best wins (default 3)
#   HTH_BENCHGATE_BENCHTIME  go test -benchtime per run (default 1s)
#   HTH_BENCHGATE_SPARSE_FLOOR  guest-instrs/s floor for the sparse-
#                            taint (clean tier) benchmark (default: the
#                            benchgate.sparse_instrs_per_sec_floor value
#                            of the newest BENCH_*.json; absent = skip)
set -eu

cd "$(dirname "$0")/.."

tolerance=${HTH_BENCHGATE_TOLERANCE:-10}
maxallocs=${HTH_BENCHGATE_MAXALLOCS:-360}
runs=${HTH_BENCHGATE_RUNS:-3}
benchtime=${HTH_BENCHGATE_BENCHTIME:-1s}

newest=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1)
baseline=${HTH_BENCHGATE_BASELINE:-}
if [ -z "$baseline" ]; then
    if [ -z "$newest" ]; then
        echo "benchgate: no BENCH_*.json baseline found; set HTH_BENCHGATE_BASELINE" >&2
        exit 1
    fi
    baseline=$(sed -n 's/.*"baseline_instrs_per_sec_floor": *\([0-9][0-9]*\).*/\1/p' "$newest" | head -n 1)
    if [ -z "$baseline" ]; then
        echo "benchgate: $newest has no benchgate.baseline_instrs_per_sec_floor" >&2
        exit 1
    fi
    echo "benchgate: baseline $baseline guest-instrs/s (from $newest)"
fi

out=$(go test -run '^$' -bench BenchmarkPerfMemFullDataflow -benchmem \
    -benchtime "$benchtime" -count "$runs" .)
echo "$out"

echo "$out" | awk -v best=0 -v allocs=0 -v base="$baseline" -v tol="$tolerance" \
    -v maxallocs="$maxallocs" '
    / guest-instrs\/s/ {
        for (i = 1; i < NF; i++) {
            if ($(i + 1) == "guest-instrs/s" && $i + 0 > best)
                best = $i + 0
            if ($(i + 1) == "allocs/op" && $i + 0 > allocs)
                allocs = $i + 0
        }
    }
    END {
        if (best == 0) {
            print "benchgate: no guest-instrs/s metric in benchmark output"
            exit 1
        }
        printf "benchgate: allocs/op %d (ceiling %d)\n", allocs, maxallocs
        if (allocs > maxallocs) {
            print "benchgate: FAIL — disabled-bus hot path gained allocations"
            exit 1
        }
        floor = base * (1 - tol / 100)
        delta = (best - base) / base * 100
        printf "benchgate: best %.0f guest-instrs/s vs baseline %.0f (%+.1f%%, floor %.0f)\n",
            best, base, delta, floor
        if (best < floor) {
            print "benchgate: FAIL — disabled-bus hot path regressed beyond tolerance"
            exit 1
        }
        print "benchgate: OK"
    }'

# Clean-tier floor: the sparse-taint workload (taint present but never
# in the hot loop's footprint) must keep its partial-instrumentation
# speedup. The floor sits above trace-tier-only throughput on the
# recording host, so a clean tier that silently stops demoting — or a
# re-instrumentation seam that flushes verdicts every block — fails the
# gate even under shared-host jitter.
sparsefloor=${HTH_BENCHGATE_SPARSE_FLOOR:-}
if [ -z "$sparsefloor" ] && [ -n "$newest" ]; then
    sparsefloor=$(sed -n 's/.*"sparse_instrs_per_sec_floor": *\([0-9][0-9]*\).*/\1/p' "$newest" | head -n 1)
fi
if [ -z "$sparsefloor" ]; then
    echo "benchgate: no sparse_instrs_per_sec_floor recorded; skipping clean-tier floor"
    exit 0
fi
echo "benchgate: sparse floor $sparsefloor guest-instrs/s"

sout=$(go test -run '^$' -bench 'BenchmarkPerfMemSparseTaint$' \
    -benchtime "$benchtime" -count "$runs" .)
echo "$sout"

echo "$sout" | awk -v best=0 -v floor="$sparsefloor" '
    / guest-instrs\/s/ {
        for (i = 1; i < NF; i++)
            if ($(i + 1) == "guest-instrs/s" && $i + 0 > best)
                best = $i + 0
    }
    END {
        if (best == 0) {
            print "benchgate: no guest-instrs/s metric in sparse benchmark output"
            exit 1
        }
        printf "benchgate: sparse best %.0f guest-instrs/s (floor %.0f)\n", best, floor
        if (best < floor) {
            print "benchgate: FAIL — clean tier lost its sparse-taint speedup"
            exit 1
        }
        print "benchgate: sparse OK"
    }'
