#!/usr/bin/env bash
# Full verification gate: static checks, the whole test suite under the
# race detector (the measurement engine's worker pool is on by default, so
# every run exercises real concurrency), and a one-shot smoke run of the
# quick benchmark profile. The race detector is ~10-20x slower than a
# plain run — the explicit -timeout keeps slow single-core machines from
# tripping go test's 600s default.
set -euo pipefail
cd "$(dirname "$0")/.."

# Perf-regression gate, part 1: the bench smoke runs below overwrite the
# committed BENCH_*.json baselines in place, so stash them first;
# scripts/benchdiff compares against this copy at the end.
BASELINES="$(mktemp -d)"
cp BENCH_*.json "$BASELINES"/

go vet ./...
go build ./...
go test -race -timeout 3600s ./...
go test -short -race -timeout 3600s -run xxx -bench=BenchmarkTable1Breakdown -benchtime=1x .
# Sampling-arena and cache-ranking smoke: one iteration each keeps the
# allocation-sensitive paths (pooled scratch, top-k selection) compiling
# and running without paying full benchmark time.
go test -timeout 3600s -run xxx -bench='BenchmarkSample$' -benchtime=1x ./internal/sampling
go test -timeout 3600s -run xxx -bench=BenchmarkCacheRank -benchtime=1x ./internal/cache
# Pooled training-path gate: the zero-alloc pin and the pooled-vs-fresh
# differential (bit-identical histories, checkpoints and hit rates across
# data-parallel widths), plus the concurrent pooled trainers under race
# (covered again by the full -race suite above; -count=1 defeats caching),
# and a one-iteration smoke of the end-to-end minibatch benchmark that
# also regenerates BENCH_train.json.
go test -timeout 3600s -count=1 -run 'TestMinibatchSteadyStateZeroAllocs|TestTrainPooledMatchesFresh' ./internal/train
go test -timeout 3600s -run xxx -bench=BenchmarkMinibatch -benchtime=1x .
# Fault-injection determinism suite: empty plans are bit-identical no-ops,
# seeded plans reproduce across worker counts, and an injected crash
# recovers live training to the exact uninterrupted loss history.
go test -timeout 3600s -count=1 -run 'Fault|Resilience|CrashRecovery' ./internal/sim ./internal/fault ./internal/core ./internal/train ./internal/experiments
# Resilience smoke: the fault sweep end to end through the CLI.
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 -faults 3 resilience
# Dynamic-graph suite under race: the delta/snapshot structural tests, the
# snapshot-vs-rebuild differentials at every layer (sampling, PreSC,
# footprint, measure — covered again by the full -race suite above;
# -count=1 defeats caching), and the snapshot zero-alloc pin.
go test -race -timeout 3600s -count=1 \
	-run 'TestSnapshot|TestDelta|TestCompact|TestDegreeRankTop|SnapshotMatchesRebuild|TestSampleSnapshotZeroAllocs|TestHotness' \
	./internal/graph ./internal/sampling ./internal/cache ./internal/measure
# Compressed-topology suite under race: packed structural/round-trip
# tests, the packed-vs-CSR sampling differentials (all 8 variants, gob
# byte-identical), the decoded-row cache pins, the packed zero-alloc pin,
# the measure-layer differential and the packed dataset round trip
# (covered again by the full -race suite above; -count=1 defeats caching).
go test -race -timeout 3600s -count=1 \
	-run 'TestPacked|FuzzPackedFromBytes|TestSamplePacked|TestCollectPacked|TestCSRMaxDegreeMemoized|TestParallelMatMulATB' \
	./internal/graph ./internal/sampling ./internal/measure ./internal/gen ./internal/tensor
# Graph-storage benchmark smoke: one iteration regenerates BENCH_graph.json
# (snapshot/compact cost, overlay sampling overhead, O(|Δ|) ApplyDelta,
# packed compression ratio + decode/sampling overhead).
go test -timeout 3600s -run xxx -bench='BenchmarkSnapshotOverhead|BenchmarkApplyDelta|BenchmarkPackedDecode' -benchtime=1x .
# Packed CLI smoke: compressed inventory, degree stats and dataset write
# through gnnlab-gen (the read side is pinned by TestPackedDatasetRoundTrip),
# and one experiment over packed topology end to end.
PACKED_TMP="$(mktemp -d)"
go run ./cmd/gnnlab-gen -preset PR -scale 8 -packed -out "$PACKED_TMP/pr.bin"
go run ./cmd/gnnlab-gen -preset PR -scale 8 -packed -stats > /dev/null
rm -rf "$PACKED_TMP"
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 -packed table2 > /dev/null
# Drift smoke: the dynamic-graph cache-policy experiment end to end
# through the CLI (degree vs PreSC under drift at two re-rank cadences).
go run ./cmd/gnnlab-bench -scale 8 -gpus 4 -epochs 2 -drift 3 drift
# Epoch-accounting smoke: the critical-path/what-if report end to end.
go run ./cmd/gnnlab-timeline -dataset PA -scale 16 -gpus 4 -gantt=false -report > /dev/null
# Faulted-epoch determinism: a traced epoch under seed-keyed faults drives
# the epoch engine's crash/requeue/stall paths from the CLI, so two runs
# must emit byte-identical timelines and accounting reports.
FAULT_TMP="$(mktemp -d)"
go run ./cmd/gnnlab-timeline -dataset PA -scale 16 -gpus 4 -faults 3 -gantt=false -csv -report > "$FAULT_TMP/a.txt"
go run ./cmd/gnnlab-timeline -dataset PA -scale 16 -gpus 4 -faults 3 -gantt=false -csv -report > "$FAULT_TMP/b.txt"
cmp "$FAULT_TMP/a.txt" "$FAULT_TMP/b.txt"
rm -rf "$FAULT_TMP"
# Serving suite: the queue lifecycle fixes (done-on-last-item, Reopen
# maxDepth reset, closed-enqueue drop accounting) and the Close/Reopen
# stress interleavings under race, the open-loop simulator's conservation
# and fault invariants, and the live server's admission/deadline/
# microbatching/zero-alloc pins (covered again by the full -race suite
# above; -count=1 defeats caching).
go test -race -timeout 3600s -count=1 \
	-run 'TestTryDequeue|TestTryEnqueue|TestReopen|TestDropped|TestResetStats|TestCloseReopenStress|TestPoisson|TestTrace|TestServe|TestMaxSustainable|TestAdmission|TestDeadline|TestEWMA|TestRequestDrivenCache' \
	./internal/queue ./internal/sim ./internal/serve
# Serving determinism: the open-loop latency report is seed-keyed
# simulation downstream of measured stage costs, so two runs of the same
# binary must emit byte-identical tables (csv omits wall-clock footers).
SERVE_TMP="$(mktemp -d)"
go run ./cmd/gnnlab-bench -serve -scale 8 -gpus 4 -epochs 2 -format csv > "$SERVE_TMP/a.csv"
go run ./cmd/gnnlab-bench -serve -scale 8 -gpus 4 -epochs 2 -format csv > "$SERVE_TMP/b.csv"
cmp "$SERVE_TMP/a.csv" "$SERVE_TMP/b.csv"
rm -rf "$SERVE_TMP"
# Serving benchmark smoke: one iteration regenerates BENCH_serve.json
# (exact simulated p50/p99/max-QPS per split + live microbatch cycle cost).
go test -timeout 3600s -run xxx -bench=BenchmarkServe -benchtime=1x .
# Perf-regression gate, part 2: regenerate the artifacts the smoke runs
# above did not already refresh (measure, replay, sample), then diff all
# six against the stashed baselines. Allocation metrics fail past 15%;
# the simulated serving metrics are exact; wall-clock metrics get a wide
# noise band (see scripts/benchdiff).
go test -timeout 3600s -run xxx -bench='BenchmarkMeasureParallel|BenchmarkMeasureStoreReplay|BenchmarkSampleArena' -benchtime=1x .
go run ./scripts/benchdiff -out benchdiff.txt "$BASELINES" .
