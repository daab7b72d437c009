GO ?= go

.PHONY: check test tables chaos trace benchgate soak elf clean-tier spans

# The full pre-merge gate: vet + build + tests + race-detector pass
# over the parallel corpus runner + seeded chaos sweep + fuzz smoke.
check:
	sh scripts/check.sh

# The robustness gate alone: zero-rate identity and fault containment
# over the full corpus on a fixed seed.
chaos:
	$(GO) run ./cmd/hth-bench -chaos 0xC0FFEE,0.05 -parallel 4

# The service chaos soak: concurrent tenants under a seeded
# service-level fault storm (worker crashes, stalls, corrupted specs,
# slow readers) — zero lost jobs, zero leaked goroutines — plus the
# zero-rate identity soak, the worker-crash path (one typed error per
# crashed job), dispatch to the first free worker, a full pool that
# still grants every job the features it asked for, and the
# corpus-through-service signature gate, all under the race detector.
soak:
	$(GO) test -race -count=1 -run 'TestServiceChaosSoak|TestServiceSoakZeroRate|TestServiceCrashEndsJobOnce|TestServiceWorkerCrashTypedError|TestServiceWorkConserving|TestServiceFullPoolKeepsFeatures' .
	$(GO) test -race -count=1 -run TestServiceSweepSignatureIdentity ./internal/corpus

test:
	$(GO) test ./...

# Regenerate every evaluation table on a 4-wide scenario pool.
tables:
	$(GO) run ./cmd/hth-bench -table all -parallel 4

# The observability overhead gate alone (see scripts/benchgate.sh).
benchgate:
	sh scripts/benchgate.sh

# The ELF frontend gate: fixture scenarios + symbolized-provenance
# goldens, the decoder and pinned-layout unit tests, the InstallSource
# diagnostics test, and a fuzz smoke proving malformed uploads fail
# typed, never panic.
elf:
	$(GO) test -count=1 -run 'TestTableE1|TestELF|FuzzELFParse|TestDecodeELF' ./internal/corpus ./internal/image
	$(GO) test -count=1 ./internal/x86 ./internal/loader
	$(GO) test -count=1 -run TestInstallSource .
	$(GO) test -fuzz=FuzzELFParse -fuzztime=10s ./internal/image

# The clean-tier gate: the full-corpus differential sweep (interpreter
# vs traces vs traces+clean, signatures bit-identical), the page-flip
# seam units, the chaos-delayed recv re-instrumentation regression,
# the bare-resume revalidation units (a bare trace stop resumes bare
# only while its flip generation and clean epoch hold), and a fuzz
# smoke over the mid-run taint-injection oracle.
clean-tier:
	$(GO) test -count=1 -run 'TestCleanTierDifferentialSweep|TestCleanTierReinstrumentOnDelayedRecv' ./internal/corpus
	$(GO) test -count=1 -run 'TestShadowSourceAfterCachedNil|TestShadowPageFlipSeam' ./internal/taint
	$(GO) test -count=1 -run 'TestBareResumeRevalidates' ./internal/harrier
	$(GO) test -fuzz=FuzzCleanReinstrument -fuzztime=10s ./internal/harrier

# The span-tracing gate: the hth-trace span/summary goldens, every
# consumer of the one Chrome trace_event writer (provenance export,
# hostile-string escaping), the Prometheus latency-histogram golden, the span-recorder stress test
# under the race detector, the service span-lifecycle suite, and the
# spans-off/on corpus differential sweep (span recording must be
# provably inert).
spans:
	$(GO) test -count=1 -run 'TestReplaySummaryGolden|TestReplaySpansChrome' ./cmd/hth-trace
	$(GO) test -count=1 -run 'TestProvenanceChromeTrace|TestChromeTraceEscapesStrings' ./internal/obs
	$(GO) test -count=1 -run 'TestPrometheusLatencyGolden|TestTenantCardinalityCap' ./internal/obs
	$(GO) test -race -count=1 -run 'TestSpanRecorder|TestTierTimer|TestLatency' ./internal/obs
	$(GO) test -race -count=1 -run 'TestServiceJobSpanTree|TestServiceCrashEndsJobOnce|TestServiceDeadlineSpanStatus|TestServiceHealthLatencyRollups' .
	$(GO) test -count=1 -run TestSpanDifferentialSweep ./internal/corpus

# Record a trojandetect JSONL event trace, replay it with hth-trace,
# and diff the summary against the golden — the deterministic
# end-to-end check of the observer pipeline.
trace:
	$(GO) run ./examples/trojandetect -trace /tmp/hth-trojandetect.jsonl >/dev/null
	$(GO) run ./cmd/hth-trace -replay /tmp/hth-trojandetect.jsonl -summary \
		| diff -u testdata/trojandetect.trace.golden -
	@echo "trace replay matches golden"
