#!/bin/sh
# check.sh — the full pre-merge gate: vet, gofmt, build, unit tests, the
# race-detector pass over the parallel corpus runner, a seeded chaos
# sweep, and a fuzz smoke over the chaos plan parser. `make check`
# invokes this script.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# Formatting gate: every Go file must already be gofmt-clean.
test -z "$(gofmt -l .)"
# staticcheck is optional tooling: run it when installed, skip (loudly)
# when the host doesn't have it so the gate stays hermetic.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not on PATH; skipping" >&2
fi
go build ./...
go test ./...
# The benchmark driver is its own module, which the root `./...` does
# not reach; its tests check every job against an independent reference.
go -C cmd/hth-load vet ./...
go -C cmd/hth-load test .
# Race-detector pass over the whole module: the parallel corpus runner
# and the tier promotion/demotion paths run their full test load under
# the detector.
go test -race ./...
# Paper tables: every row of every evaluation table must reproduce
# (hth-bench exits 1 on any diverged row).
go run ./cmd/hth-bench -table all -parallel 4 >/dev/null
# Robustness gate: zero-rate identity plus fault containment over the
# full corpus on a fixed seed (see cmd/hth-bench).
go run ./cmd/hth-bench -chaos 0xC0FFEE,0.05 -parallel 4 >/dev/null
# Service soak gate: concurrent tenants under a seeded service-level
# fault storm — every job terminates in a verdict or typed error, no
# lost jobs, no leaked goroutines, and corpus-through-service sweep
# signatures bit-identical to batch (see Makefile `soak`).
make soak
# Fuzz smoke: the chaos plan parser must never panic on hostile specs.
go test -fuzz=FuzzChaos -fuzztime=10s ./internal/chaos
# Copy-on-write fork: random stores, Clone chains and Resets over guest
# memory and over the taint shadow must match a deep-copy reference,
# with no page flip fired by a page copy.
go test -fuzz=FuzzCloneIsolation -fuzztime=10s ./internal/isa
go test -fuzz=FuzzCloneIsolation -fuzztime=10s ./internal/taint
# Recycled taint stores: a store released after random operations and
# taken back must behave exactly like a new one.
go test -fuzz=FuzzStoreRecycle -fuzztime=10s ./internal/taint
# Trace-tier gates: the full corpus must be bit-identical at the
# interpreter tier and with traces (crossed with provenance), a trace
# cut by the scheduler slice must resume bit-identically at slices of
# 128 and 13, compiling any corpus leader twice must yield the same
# trace (what re-promotion after execve relies on), and the trace
# oracles get a fuzz smoke beyond their checked-in corpus.
go test -run 'TestTierDifferentialSweep|TestTraceDifferentialSweep|TestTraceSliceResume' -count=1 ./internal/corpus
go test -run 'TestTraceCompileDeterministic' -count=1 ./internal/harrier
go test -fuzz=FuzzTraceApply -fuzztime=10s ./internal/harrier
go test -fuzz=FuzzStraightLineTrace -fuzztime=10s ./internal/harrier
# Expert-engine gates: the undeclared- and duplicate-slot rejections,
# Secpert's allocation ceilings, the shared-policy immutability guard
# (its service sweep under the race detector), and a fuzz smoke of the
# compiled matcher against the nested-loop reference engine.
go test -count=1 -run 'TestRuleOnUndeclaredSlotRejected|TestNegatedRuleOnUndeclaredSlotRejected|TestClipsRuleOnUndeclaredSlotRejected|TestTemplateDuplicateSlotRejected|TestClipsTemplateDuplicateSlotRejected' ./internal/expert
go test -count=1 -run 'TestSecpertAllocs' ./internal/corpus
go test -race -count=1 -run 'TestSharedPolicyImmutable' ./internal/corpus
go test -fuzz=FuzzEngineReference -fuzztime=10s ./internal/expert
# Clean-tier gates: the corpus must be bit-identical with the clean
# tier off and on, the page-flip re-instrumentation seam holds under
# the chaos-delayed recv regression, and the mid-run taint-injection
# oracle gets a fuzz smoke (see Makefile `clean-tier`).
make clean-tier
# ELF frontend gate: fixture scenarios, symbolized-provenance goldens,
# decoder/pinned-layout units, the InstallSource diagnostics test, and
# a fuzz smoke over the ELF parser (see Makefile `elf`).
make elf
# Observability overhead gate: the disabled event bus must stay one
# nil-check per publish site — no hot-path allocations, no gross
# throughput regression (see scripts/benchgate.sh).
sh scripts/benchgate.sh
# Span-tracing gate: span/summary/latency-histogram goldens, the span
# recorder under the race detector, the service span-lifecycle suite,
# and the spans-off/on differential sweep (see Makefile `spans`).
make spans
# Examples gate: every example program runs to completion, and
# trojandetect's provenance path keeps working.
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done
go run ./examples/trojandetect -provenance >/dev/null
# Command-line gate: the CLIs no other gate runs exit 0 on one input
# each (hth-serve's own test starts it, submits a job and drains it).
clidir=$(mktemp -d)
trap 'rm -rf "$clidir"' EXIT
printf '.text\n_start:\n    mov ebx, 0\n    mov eax, 1\n    int 0x80\n' >"$clidir/p.s"
printf '(deftemplate person (slot name))\n(defrule hi (person (name ?n)) => (printout t "hi " ?n crlf))\n(assert (person (name world)))\n(run)\n' >"$clidir/t.clp"
go run ./cmd/hth -scenario pma >/dev/null
go run ./cmd/hth-asm -in "$clidir/p.s" -disasm -instrument -secure >/dev/null
go run ./cmd/clips "$clidir/t.clp" >"$clidir/clips.out"
grep -q 'hi world' "$clidir/clips.out"
# Trace replay gate: a recorded trojandetect run must replay into the
# golden summary (determinism of the JSONL observer end to end).
make trace
