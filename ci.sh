#!/bin/sh
# ci.sh — the repository's continuous-integration gate.
#
#   ./ci.sh
#
# Runs, in order: go vet, go build, the full test suite, the test suite
# under the race detector, a short native-fuzz smoke over the blossom
# matcher, the decode dispatch, the SFQ bit-plane kernel against the
# legacy oracle, and the SWAR batch kernel, short bit-plane-vs-oracle
# and batch/scalar conformance passes, the two-level escalation gates (differential conformance
# against pure mesh / pure MWPM, a FuzzTwoLevel smoke, and the
# two-level sweep determinism test under the race detector), a
# batched-vs-scalar sweep determinism gate under the race
# detector, the telemetry gates (a dedicated
# race pass over internal/obs, the live /metrics smoke scrape, and the
# <=5% instrumentation-overhead guard on the decode hot path), and the
# decode-hot-path benchmarks
# (which also regenerate BENCH_pr2.json, BENCH_pr3.json and
# BENCH_pr5.json), and finally the decode service gates: wire
# conformance + a race-detector hammer over internal/serve (including
# the escalation hammer), a FuzzFrame
# smoke, a live serve+loadgen run in two-level mode that regenerates
# BENCH_pr6.json, and the two-level accuracy-vs-latency frontier run
# that regenerates BENCH_pr7.json. PR 8 adds: W-word wide-kernel
# conformance (all widths bit-identical to the scalar kernel) and a
# FuzzWideBatch smoke, a race pass over the work-stealing scheduler
# plus the steal-schedule sweep-determinism gate, and regeneration of
# BENCH_pr8.json — cmd/bench hard-fails if the W=4 kernel is below
# 1.5x the W=1 layout at d >= 9, allocates, drops below 0.8x ideal
# scaling on rows with workers <= NumCPU, or produces a sweep
# fingerprint that differs across any worker/steal/width schedule;
# loadgen -sweep then appends the serve lane-fill/latency rows.
# PR 9 adds request-lifecycle tracing gates: the trace overhead guard
# (traced serve path within 2% of tracing-off at the default 1-in-16
# sampling, same REPRO_OBS_GUARD opt-in), and the serve+loadgen run now
# scrapes /debug/traces with -trace-check, which
# hard-fails unless the flight recorder captured a shed decision with
# controller inputs and an outlier trace whose per-stage decomposition
# telescopes to its wall time.
# PR 10 adds the data-plane fast-path gates: the AllocsPerRun-0 check
# on the steady-state serve path (submit -> queue -> decode -> deliver
# -> ring -> response write with a discard conn must allocate nothing
# per request), the weighted-shed ordering property tests under the
# race detector (cheap d=3 sheds before expensive d=13;
# REPRO_SERVE_WEIGHTED=0 restores uniform shedding), the sojourn-drop
# policy test, and the trace scrape now writes BENCH_pr10.json whose
# -trace-check additionally hard-fails unless shed decisions carry the
# new weight/sojourn inputs and serve_queue_wait_ns p99 at the 2R point
# improved >=20% over the embedded PR 9 baseline row.
# The SFQ mesh has two production stepping kernels: the scalar
# bit-plane kernel (single syndromes, and meshes wider than one word)
# and the fused SWAR batch kernel (side <= 64, every plane width). The
# original struct-of-bools kernel lives only in internal/sfq's tests,
# as the independent oracle the bit-plane kernel is diffed against.
# Every -run, -fuzz and -bench pattern below goes through gotest, which
# fails when a pattern name matches no test (a renamed conformance test
# must not silently turn its gate into "no tests to run").
# The race
# run sets
# REPRO_MC_SHORT=1, which the statistical tests in internal/stats and
# internal/mc honour by shrinking their trial budgets (their acceptance
# thresholds scale with sample size, so the checks stay valid — just
# cheaper, since the race detector slows execution roughly tenfold).
#
# Unset REPRO_MC_SHORT (the plain `go test ./...` below) exercises the
# full-size budgets.
set -eu

cd "$(dirname "$0")"

# gotest is `go test` that first checks the names in its -run, -fuzz and
# -bench patterns: every |-separated alternative must match at least one
# function of the package (the last argument) under `go test -list`.
# Without the check, renaming a test turns its gate into "no tests to
# run", which passes. The match-nothing pattern '^$' is exempt.
gotest() {
	pats=""
	prev=""
	for a in "$@"; do
		case "$prev" in -run | -fuzz | -bench) pats="$pats $a" ;; esac
		case "$a" in -run=* | -fuzz=* | -bench=*) pats="$pats ${a#*=}" ;; esac
		prev=$a
	done
	pkg=$prev
	for p in $pats; do
		[ "$p" = '^$' ] && continue
		for name in $(printf '%s\n' "$p" | tr '|' ' '); do
			if ! go test -list "$name" "$pkg" | grep -Eq '^(Test|Benchmark|Fuzz|Example)'; then
				echo "ci.sh: pattern $name matches no test in $pkg" >&2
				exit 1
			fi
		done
	done
	go test "$@"
}

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (short trials) =="
REPRO_MC_SHORT=1 go test -race ./...

echo "== fuzz smoke =="
gotest -run='^$' -fuzz=FuzzBlossom -fuzztime=5s ./internal/match
gotest -run='^$' -fuzz=FuzzDecode -fuzztime=5s ./internal/decoder
gotest -run='^$' -fuzz='^FuzzMesh$' -fuzztime=5s ./internal/sfq
gotest -run='^$' -fuzz='^FuzzBatchMesh$' -fuzztime=5s ./internal/sfq
gotest -run='^$' -fuzz='^FuzzWideBatch$' -fuzztime=5s ./internal/sfq
gotest -run='^$' -fuzz='^FuzzFrame$' -fuzztime=5s ./internal/serve
gotest -run='^$' -fuzz='^FuzzTwoLevel$' -fuzztime=5s ./internal/twolevel

echo "== mesh kernel conformance (short) =="
REPRO_MC_SHORT=1 gotest -run TestBitplaneConformance ./internal/sfq
REPRO_MC_SHORT=1 gotest -run TestBatchMeshConformance ./internal/sfq
REPRO_MC_SHORT=1 gotest -run TestStatsExitPathParity ./internal/sfq
REPRO_MC_SHORT=1 gotest -run 'TestBatchMeshWidthConformance|TestBatchMeshWidthsAgree|TestBatchMeshWidthZeroAllocs' ./internal/sfq

echo "== work-stealing scheduler: race pass + steal-schedule determinism =="
go test -race -count=1 ./internal/sched
REPRO_MC_SHORT=1 gotest -race -run TestCurvesStealScheduleDeterminism -count=1 ./internal/stats

echo "== two-level escalation: differential conformance + sweep determinism (race) =="
REPRO_MC_SHORT=1 gotest -run 'TestTwoLevelConformance|TestTwoLevelCounters' -count=1 ./internal/twolevel
REPRO_MC_SHORT=1 gotest -race -run TestCurvesTwoLevelDeterminism -count=1 ./internal/stats

echo "== decode service: wire conformance + race hammer + backpressure =="
REPRO_MC_SHORT=1 gotest -run 'TestWireConformance|TestHTTPConformance' -count=1 ./internal/serve
REPRO_MC_SHORT=1 go test -race -count=1 ./internal/serve

echo "== serve fast path: zero-alloc gate + weighted shed ordering (race) =="
# The steady-state serve path must allocate nothing per request: pooled
# responses and syndrome buffers, ring out-queue, no per-request
# closures. Run without -race (the detector's instrumentation
# allocates).
gotest -run TestSteadyStateZeroAllocs -count=1 ./internal/serve
# Shed ordering under overload is monotone in measured decode cost, the
# sojourn bound drops aged work, and REPRO_SERVE_WEIGHTED=0 restores
# uniform shedding — all racing the controller.
REPRO_MC_SHORT=1 gotest -race -run 'TestShedClassMonotone|TestWeightedShedOrdering|TestWeightedShedDisabled|TestSojournDrop|TestSubmitCopiesSyndrome|TestWireAliasingPipelined|TestClientFlushBatching' -count=1 ./internal/serve

echo "== batched sweep determinism (race, short trials) =="
REPRO_MC_SHORT=1 gotest -race -run TestCurvesBatchDeterminism -count=1 ./internal/stats

echo "== telemetry: obs race, live scrape, overhead guard =="
go test -race -count=1 ./internal/obs
REPRO_MC_SHORT=1 gotest -run TestObsMetricsSmokeSweep -count=1 .
REPRO_OBS_GUARD=1 gotest -run 'TestObsOverheadGuard|TestTraceOverheadGuard' -count=1 .

echo "== decode hot-path benchmarks =="
gotest -run='^$' -bench BenchmarkDecodeHotPath -benchtime 100x -benchmem .
gotest -run='^$' -bench BenchmarkSFQMesh -benchtime 100x -benchmem .
# -allow-dirty: ci.sh runs on development trees; the manifest still
# records git_dirty so the artifact is honest about its provenance.
go run ./cmd/bench -iters 2000 -out BENCH_pr2.json -mesh-out BENCH_pr3.json \
	-batch-out BENCH_pr5.json -wide-out BENCH_pr8.json -allow-dirty

echo "== decode service end to end: serve + loadgen (BENCH_pr6.json) =="
# A live serve instance under open-loop Poisson load. -lanes 1 lowers
# capacity so the calibrated R/2, R, 2R sweep straddles saturation in
# about three seconds on any machine.
SERVE_TMP=$(mktemp -d)
SERVE_PID=""
cleanup_serve() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$SERVE_TMP"
}
trap cleanup_serve EXIT
go build -o "$SERVE_TMP/serve" ./cmd/serve
go build -o "$SERVE_TMP/loadgen" ./cmd/loadgen
# -escalate: the run exercises the full two-level service path — flags
# on the wire, the bounded level-2 queue, and the merged two-tier
# latency signal into admission control. -esc-hot 14 keeps the
# escalation rate moderate at the loadgen workload's density.
"$SERVE_TMP/serve" -d 9,13 -lanes 1 -escalate -esc-hot 14 -addr-file "$SERVE_TMP/addr" &
SERVE_PID=$!
for _ in $(seq 50); do
	[ -s "$SERVE_TMP/addr" ] && break
	sleep 0.1
done
TCP_ADDR=$(awk '/^tcp /{print $2}' "$SERVE_TMP/addr")
HTTP_ADDR=$(awk '/^http /{print $2}' "$SERVE_TMP/addr")
[ -n "$TCP_ADDR" ] && [ -n "$HTTP_ADDR" ] || { echo "serve did not publish its addresses"; exit 1; }
# -trace-out scrapes /debug/traces after the sweep into BENCH_pr10.json;
# -trace-check hard-fails unless the recorder holds at least one shed
# decision with admission-controller inputs, one shed decision carrying
# the PR 10 weight/sojourn inputs, one outlier trace whose stage
# decomposition telescopes to its wall time, AND the measured
# serve_queue_wait_ns p99 beats the embedded PR 9 baseline by >=20%
# (the sojourn bound + flush batching are what buy the improvement).
"$SERVE_TMP/loadgen" -addr "$TCP_ADDR" -d 13 -duration 1s -out BENCH_pr6.json \
	-trace-http "http://$HTTP_ADDR" -trace-out BENCH_pr10.json -trace-check
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "== serve worker sweep: lane fill vs latency (BENCH_pr8.json serve_rows) =="
"$SERVE_TMP/loadgen" -sweep -sweep-out BENCH_pr8.json -sweep-clients 64 -duration 1500ms

echo "== two-level frontier: accuracy vs latency (BENCH_pr7.json) =="
go run ./cmd/compare -frontier -distances 7,9,11 -frontier-p 0.03,0.06,0.09 \
	-cycles 2500 -seed 1 -out BENCH_pr7.json

echo "CI OK"
