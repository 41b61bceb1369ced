# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short bench-module-test bench bench-smoke bench-compare vet lint fmt ci fuzz-smoke trace-smoke serve-smoke crash-smoke stream-smoke topo-smoke figures report clean

all: build vet lint test

# Exactly what .github/workflows/ci.yml runs. Format and lint precede the
# test steps so contract violations fail fast. The explicit -timeout keeps
# the race run (worker-pool hammer tests slowed ~20x by the detector) from
# tripping go test's 600s default on single-core machines.
ci: build vet fmt lint
	go test -race -timeout 1800s ./...
	$(MAKE) bench-module-test
	$(MAKE) bench-smoke
	$(MAKE) bench-compare
	$(MAKE) fuzz-smoke
	$(MAKE) trace-smoke
	$(MAKE) stream-smoke
	$(MAKE) topo-smoke
	$(MAKE) serve-smoke
	$(MAKE) crash-smoke

fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzDecodePacket -fuzztime=10s ./internal/core
	go test -run='^$$' -fuzz=FuzzQueueWrite -fuzztime=10s ./internal/core
	go test -run='^$$' -fuzz=FuzzTopoSpec -fuzztime=10s ./internal/topo
	go test -run='^$$' -fuzz=FuzzTrainSpec -fuzztime=10s ./internal/collective
	go test -run='^$$' -fuzz=FuzzReader -fuzztime=10s ./internal/tracestream
	go test -run='^$$' -fuzz=FuzzProfile -fuzztime=10s ./internal/tracestream
	go test -run='^$$' -fuzz=FuzzFromEdgeList -fuzztime=10s ./internal/datasets
	go test -run='^$$' -fuzz=FuzzJobSpec -fuzztime=10s ./internal/serve

# End-to-end observability smoke: one tiny instrumented run through the
# CLI. The observe verb validates its own artifacts before writing (the
# trace must parse as a trace-event array, the metrics must round-trip
# through the exposition parser byte-identically), so a zero exit status
# here certifies well-formed output.
trace-smoke:
	mkdir -p .smoke
	go run ./cmd/finepack-sim -scale 0.05 -iters 1 \
		-trace-json .smoke/trace.json -metrics-out .smoke/metrics.prom \
		-timeline-svg .smoke/timeline.svg observe
	rm -rf .smoke

# Streaming-memory smoke: synthesize a trace ≥100× the largest built-in
# workload (2,097,152 warp stores), stream it from disk through a full
# simulator run, and fail if the sampled peak heap exceeds the O(window)
# ceiling — materializing the same trace would hold ~600 MB, so the gate
# catches anything on the v2 reader/ingest path that starts retaining
# whole traces. BenchmarkStreamedSSSP is the same run under -bench for
# trend tracking.
stream-smoke:
	STREAM_SMOKE=1 go test -run='^TestStreamedMemoryCeiling$$' -count=1 -timeout 600s -v .

# Multi-hop topology smoke: sweep the crossover mix (scattered stores +
# a concurrent ring AllReduce) across all 32 GPUs of the hierarchical
# pod4x8 preset under both FinePack and the P2P baseline, assert nonzero
# inter-node traffic and per-hop accounting, and require the report
# table to render byte-identically from a fresh sweep.
topo-smoke:
	TOPO_SMOKE=1 go test -run='^TestTopoSmoke$$' -count=1 -timeout 600s -v .

# End-to-end daemon smoke: boot finepackd on a loopback port, poll
# /readyz, submit a small job, diff its metrics artifact against the
# checked-in golden, prove a duplicate submission dedups to zero extra
# executions, and drain. Self-contained (no curl); regenerate the golden
# with `go run ./cmd/finepackd -smoke -smoke-update` after intentional
# simulator changes.
serve-smoke:
	go run ./cmd/finepackd -smoke

# Crash-recovery chaos harness: boots the real daemon on a durable data
# dir, SIGKILLs it at seeded-random points across 20 kill/restart cycles,
# then asserts the survivor serves artifacts bit-identical to a never-
# killed reference run, holds each content-addressed job exactly once,
# and actually recovered state from the WAL. Plain `go test` runs a
# 6-cycle version; this target is the full CI gate.
crash-smoke:
	CHAOS_CYCLES=20 go test -race -count=1 -timeout 600s ./internal/serve/chaostest

build:
	go build ./...

vet:
	go vet ./...

# Build and run the determinism-contract multichecker (see DESIGN.md,
# "Determinism contract" and DESIGN.md §13): wallclock, unseededrand,
# maporder, goroutinefree, sprintfkey, hotalloc, simunits, lockheld. Then
# audits every //finepack:allow for a real analyzer name and a written
# justification.
lint:
	go run ./cmd/finepack-vet ./...
	go run ./cmd/finepack-vet -allowances ./... > /dev/null

# Fails when any file needs gofmt, listing the offenders. (The old
# `gofmt -l . && test -z ...` chain exited 0 on drift: `gofmt -l`
# succeeds even when it prints files.)
fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

test:
	go test ./...

# cmd/finepack-bench is a module of its own (it requires this one through
# a replace), so the root ./... patterns do not reach it. Its tests are
# run here, so that a change to an internal API it uses fails CI.
bench-module-test:
	cd cmd/finepack-bench && go test ./...

test-short:
	go test -short ./...

# Full benchmark sweep, captured both as raw text (bench_output.txt) and
# as a dated machine-readable snapshot (BENCH_<date>.json) for diffing
# trajectories across commits.
bench:
	go test -run='^$$' -bench=. -benchmem ./... | tee bench_output.txt
	go run ./cmd/benchjson < bench_output.txt > BENCH_$$(date +%Y-%m-%d).json
	@echo "wrote BENCH_$$(date +%Y-%m-%d).json"

# One iteration of every benchmark: catches bit-rotted benchmark code in
# seconds without measuring anything.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# Allocation-regression gate: run the gate benchmarks once, convert to a
# snapshot, and diff against the committed baseline. Only allocs/op gates —
# it is exact and machine-independent, where one iteration's ns/op on a
# shared CI runner is noise. The default -alloc-slack absorbs warmup-only
# allocations that a single iteration cannot amortize away (the scheduler's
# first event-slab carve, first-touch bucket growth). The gates cover the
# DES kernel (SchedulerEvents), the analytic goodput model (Fig2Goodput),
# and the end-to-end hot paths hotalloc polices statically (EndToEndSSSP,
# Fig9Speedup, and the multi-hop store-and-forward path, MultiHopAllReduce),
# so an alloc the analyzer misses (or an over-broad //finepack:allow) still
# fails CI dynamically. EncodeDecodePacket pins the one-buffer wire codec,
# StreamedSSSP the streamed-trace path, WorkloadGenerate the in-place CSR
# graph build, and NetworkSendBurstFlat4/Pod4x8 the pooled transfer
# pipeline (one allocation per message in flight). The baseline is the
# snapshot taken after plain packets moved onto per-producer slabs.
BENCH_BASELINE := BENCH_2026-10-17-slab.json
comma := ,
BENCH_GATES := BenchmarkSchedulerEvents,BenchmarkFig2Goodput,BenchmarkEndToEndSSSP,BenchmarkFig9Speedup,BenchmarkMultiHopAllReduce,BenchmarkEncodeDecodePacket,BenchmarkStreamedSSSP,BenchmarkWorkloadGenerate,BenchmarkNetworkSendBurstFlat4,BenchmarkNetworkSendBurstPod4x8
bench-compare:
	mkdir -p .bench
	go test -run='^$$' -bench='^($(subst $(comma),|,$(BENCH_GATES)))$$' \
		-benchtime=1x -benchmem . | tee .bench/gate.txt
	go run ./cmd/benchjson -date 1970-01-01 < .bench/gate.txt > .bench/gate.json
	go run ./cmd/benchjson -compare -gate $(BENCH_GATES) -max-regress-pct 10 \
		$(BENCH_BASELINE) .bench/gate.json
	rm -rf .bench

fuzz:
	go test -fuzz=FuzzDecodePacket -fuzztime=30s ./internal/core/
	go test -fuzz=FuzzQueueWrite -fuzztime=30s ./internal/core/
	go test -fuzz=FuzzFromEdgeList -fuzztime=30s ./internal/datasets/
	go test -fuzz=FuzzReader -fuzztime=30s ./internal/tracestream/
	go test -fuzz=FuzzProfile -fuzztime=30s ./internal/tracestream/
	go test -fuzz=FuzzTopoSpec -fuzztime=30s ./internal/topo/
	go test -fuzz=FuzzTrainSpec -fuzztime=30s ./internal/collective/
	go test -fuzz=FuzzJobSpec -fuzztime=30s ./internal/serve/

# Regenerate the checked-in artifacts under docs/.
figures:
	go run ./cmd/finepack-sim -svg docs/figures fig2
	go run ./cmd/finepack-sim -svg docs/figures fig4
	go run ./cmd/finepack-sim -svg docs/figures fig9
	go run ./cmd/finepack-sim -svg docs/figures fig10
	go run ./cmd/finepack-sim -svg docs/figures fig11
	go run ./cmd/finepack-sim -svg docs/figures fig12
	go run ./cmd/finepack-sim -svg docs/figures fig13
	go run ./cmd/finepack-sim -svg docs/figures scaling

report:
	go run ./cmd/finepack-sim report > docs/report.md

golden:
	go test ./internal/experiments -run TestGolden -update

clean:
	rm -f test_output.txt bench_output.txt
