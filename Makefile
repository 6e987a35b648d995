# Mirrors .github/workflows/ci.yml so `make check` reproduces CI locally.

GO ?= go

.PHONY: check vet lint vet-baseline-empty stack-budget race-analysis build portable perfbench-build test race chaos fuzz-smoke replay-smoke triage-smoke trace-smoke monitor-smoke setup-bench bench perf perf-gate

check: vet lint vet-baseline-empty stack-budget build portable perfbench-build test race race-analysis chaos fuzz-smoke replay-smoke triage-smoke trace-smoke monitor-smoke setup-bench

# vet runs the toolchain vet plus the full csecg-vet v3 suite (interval
# rangecheck and stackcheck included) with no baseline: the tree itself
# must be clean.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/csecg-vet ./...

# lint runs the paper-constraint analyzers (no-FPU mote path and
# zero-alloc hot loops — both transitive through the call graph —
# RAM/flash budgets, determinism, dropped errors, mutexes held across
# blocking calls, goroutine shutdown paths, metric naming/export, and
# the v3 interval engine: rangecheck overflow proofs and stackcheck
# worst-case stack bounds) against the committed baseline.
lint:
	$(GO) run ./cmd/csecg-vet -baseline vet-baseline.json ./...

# stack-budget fails if the machine-computed worst-case device stack
# exceeds the RAMStackMisc ledger line (DESIGN.md §15). The -stack-report
# run prints the per-entry-point bounds for the build log.
stack-budget:
	$(GO) run ./cmd/csecg-vet -stack-report ./...
	$(GO) test -run TestStackBoundCoversLedger -v ./internal/analysis/

# race-analysis runs the analyzer suite (including the whole-module
# clean gate and the stack-bound pin, which -short skips) under the race
# detector.
race-analysis:
	$(GO) test -race ./internal/analysis/...

# The committed baseline must stay empty: csecg-vet -write-baseline
# exists for bisecting and bootstrapping new analyzers, but no finding
# may ship suppressed.
vet-baseline-empty:
	@test "$$(tr -d '[:space:]' < vet-baseline.json)" = "[]" || \
		{ echo "vet-baseline.json suppresses findings; fix or waive them in-tree"; exit 1; }

build:
	$(GO) build ./...

# portable vets and builds the tree for arm64, where the decoder runs on
# the Go kernels instead of the amd64 AVX2 assembly: it keeps the
# fallbacks building. On amd64, `go vet`'s asmdecl check keeps the .s
# frames in step with their Go stubs.
portable:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

# perfbench is a separate module the root build and tests never compile;
# vet and build it so a kernel API change cannot break the benchmark
# unnoticed.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build ./...

test:
	$(GO) test ./...

# Race instrumentation slows the FISTA-heavy experiment-shape tests past
# any reasonable timeout; they run un-instrumented in `test` and skip
# themselves under -short.
race:
	$(GO) test -race -short ./...

# chaos runs the survival-layer acceptance matrix (bit flips, burst
# loss, mote reboot, CPU slowdown, decode panics, clock drift) at CI
# smoke size; it exits nonzero on any survival-contract violation.
chaos:
	$(GO) run ./cmd/csecg-bench -exp chaos -short

fuzz-smoke:
	$(GO) test -fuzz=FuzzPacketStream -fuzztime=10s -run=FuzzPacketStream ./internal/core
	$(GO) test -fuzz=FuzzUnmarshalPacket -fuzztime=10s -run=FuzzUnmarshalPacket ./internal/core
	$(GO) test -fuzz=FuzzParseBundle -fuzztime=10s -run=FuzzParseBundle ./internal/blackbox
	$(GO) test -fuzz=FuzzProxStepAVX2 -fuzztime=10s -run=FuzzProxStepAVX2 ./internal/solver

# replay-smoke closes the incident-forensics loop end to end: run the
# chaos matrix with the flight recorder sealing diagnostics bundles,
# then replay every sealed bundle through the real receiver + solver
# stack and fail on any divergence from the record (DESIGN.md §13).
# Span tracing is on, so every recorded window carries a trace ID that
# replay must re-derive from the bundle's trace seed.
replay-smoke:
	rm -rf bundles-smoke replay-spans-smoke.jsonl
	$(GO) run ./cmd/csecg-bench -exp chaos -short -record-dir bundles-smoke -spans replay-spans-smoke.jsonl
	@ls bundles-smoke/*.jsonl >/dev/null 2>&1 || { echo "replay-smoke: chaos run sealed no bundles"; exit 1; }
	$(GO) run ./cmd/csecg-replay -v bundles-smoke/*.jsonl

# triage-smoke closes the latency-attribution loop: run the burst-loss
# chaos matrix with causal span tracing, pipe the trace JSONL into
# csecg-triage, and fail if any window's per-stage span durations
# diverge from its end-to-end decode latency (DESIGN.md §14).
triage-smoke:
	rm -f traces-smoke.jsonl
	$(GO) run ./cmd/csecg-bench -exp chaos -short -spans traces-smoke.jsonl
	$(GO) run ./cmd/csecg-triage traces-smoke.jsonl

# trace-smoke runs a short transport experiment exporting every decoded
# window's span tree as a Chrome trace, and fails if the export holds no
# B/E slice — an empty trace cannot pass.
trace-smoke:
	rm -f trace.json metrics.prom
	$(GO) run ./cmd/csecg-bench -exp transport -seconds 6 -trace trace.json -metrics metrics.prom
	@grep -q '"ph":"B"' trace.json || { echo "trace-smoke: trace.json holds no span slices"; exit 1; }

# monitor-smoke serves two burst-lossy NACK sessions through the
# monitor plane, curls every endpoint once both have finished, and fails
# if /metrics repeats a # TYPE line: the text format allows one per
# name, so a multi-session scrape must group each family. The server is
# killed on exit, pass or fail.
monitor-smoke:
	rm -f slo.jsonl sessions.json metrics-scrape.prom
	$(GO) build -o csecg-monitor-smoke ./cmd/csecg-monitor
	./csecg-monitor-smoke -listen 127.0.0.1:9102 -records 100,106 -seconds 8 -burst 0.05 -nack -slo-events slo.jsonl & \
	MON=$$!; trap 'kill $$MON 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 120); do curl -sf http://127.0.0.1:9102/healthz >/dev/null 2>&1 && break; sleep 0.5; done; \
	for i in $$(seq 1 120); do [ "$$(curl -sf http://127.0.0.1:9102/sessions | grep -c '"finished": true')" = 2 ] && break; sleep 0.5; done; \
	curl -sf http://127.0.0.1:9102/healthz && \
	curl -s  http://127.0.0.1:9102/readyz && \
	curl -sf http://127.0.0.1:9102/sessions | tee sessions.json && \
	{ [ "$$(grep -c '"finished": true' sessions.json)" = 2 ] || { echo "sessions never finished"; exit 1; }; } && \
	curl -sf http://127.0.0.1:9102/metrics > metrics-scrape.prom && \
	{ grep -q 'quality_windows_total{session=' metrics-scrape.prom || { echo "missing session-labeled metrics"; exit 1; }; } && \
	dups=$$(grep '^# TYPE' metrics-scrape.prom | sort | uniq -d) && \
	{ [ -z "$$dups" ] || { echo "/metrics repeats # TYPE lines:"; echo "$$dups"; exit 1; }; }

# setup-bench runs each session set-up benchmark once (synthesis,
# resampling, sensing-support construction) so they keep compiling and
# running; `-benchtime 1x` makes it a smoke run, not a measurement.
setup-bench:
	$(GO) test -run '^$$' -bench 'Channel256|Resample|SparseBinary' -benchtime 1x ./internal/ecg ./internal/dsp ./internal/sensing

bench:
	$(GO) test -bench=. -benchmem ./...

# perf writes the machine-readable perf-suite summary; perf-gate runs
# the CI regression comparison against the committed baseline (fails on
# >15% normalized growth — see internal/bench).
perf:
	$(GO) run ./cmd/csecg-bench -json BENCH_4.json

perf-gate:
	$(GO) run ./cmd/csecg-bench -compare BENCH_4.json
