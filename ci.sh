#!/bin/sh
# ci.sh — the repository's continuous-integration gate.
#
#   ./ci.sh
#
# Runs, in order: go vet, a gofmt check over the root and the nested
# perfbench module, go build, the full test suite, the test suite
# under the race detector, go vet and the tests of the nested perfbench
# module (the repository benchmark, which compiles against the decoder,
# sfq and serve APIs), short native-fuzz smokes (the blossom matcher;
# the software decoders against their test oracles; the SFQ bit-plane,
# batch and W-word kernels; the wire frame; two-level decoding;
# space-time decoding against its oracle), short bit-plane-vs-oracle,
# batch/scalar and W-width conformance passes, the space-time oracle
# differential and whole-block zero-alloc gate, the work-stealing
# scheduler race pass and
# steal-schedule determinism, the two-level escalation gates
# (differential conformance against pure mesh / pure MWPM and the
# two-level sweep determinism test under the race detector), the decode
# service gates (wire conformance, a race-detector hammer over
# internal/serve, the steady-state zero-alloc serve path, the
# weighted-shed ordering and sojourn-drop tests under the race
# detector), a batched-vs-scalar sweep determinism gate under the race
# detector (batching on and off, worker/shard shapes, and plane widths
# W = 1, 2, 4 pinned), the telemetry gates (a dedicated race pass over
# internal/obs, the live /metrics smoke scrape, and the wall-clock
# guards, opt-in via REPRO_OBS_GUARD: <=5% instrumentation overhead and
# <=2% trace overhead on the decode hot path, and >=0.8x ideal sweep
# scaling at every worker count the CPUs can carry), the decode-hot-path
# benchmarks, and finally the end-to-end runs: a short perfbench run of
# each BENCHMARK.json workload, a live serve+loadgen run in two-level
# mode, and the two-level accuracy-vs-latency frontier.
#
# perfbench (bash perfbench/run.sh) is the one performance judge: its
# workloads run their correctness gates before timing and report
# noise-calibrated numbers. The smoke here only checks that each
# workload builds, passes its gates and reports "correct":true; it
# makes no claim about speed. loadgen is a load driver: it fails the
# run if an offered rate gets no OK response or any request errors.
#
# Everything the end-to-end runs write (the perfbench build, the serve
# address file, the frontier artifact) goes into a temporary directory
# that is removed on exit. The tracked BENCH_pr*.json files are
# read-only history from harnesses that have since been retired: a CI
# run never rewrites them.
#
# The SFQ mesh has two production stepping kernels: the scalar
# bit-plane kernel (single syndromes, and meshes wider than one word)
# and the fused SWAR batch kernel (side <= 64, every plane width). The
# original struct-of-bools kernel lives only in internal/sfq's tests,
# as the independent oracle the bit-plane kernel is diffed against.
# Likewise greedy, MWPM and union-find each have one implementation,
# their zero-alloc DecodeInto core, which the rotated layout and
# space-time decoding reuse; the allocating reference bodies live only
# in internal/decoder's and internal/spacetime's tests as oracles.
#
# Every -run, -fuzz and -bench pattern below goes through gotest, which
# fails when a pattern name matches no test (a renamed conformance test
# must not silently turn its gate into "no tests to run"). The race run
# sets REPRO_MC_SHORT=1, which the statistical tests in internal/stats and
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

echo "== gofmt =="
# The walk covers the nested perfbench module too; the perfbench build
# directory is skipped, since it holds the Go caches.
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (short trials) =="
REPRO_MC_SHORT=1 go test -race ./...

echo "== benchmark module: vet + tests =="
(cd perfbench && go vet ./... && go test ./...)

echo "== fuzz smoke =="
gotest -run='^$' -fuzz=FuzzBlossom -fuzztime=5s ./internal/match
gotest -run='^$' -fuzz=FuzzDecode -fuzztime=5s ./internal/decoder
gotest -run='^$' -fuzz='^FuzzMesh$' -fuzztime=5s ./internal/sfq
gotest -run='^$' -fuzz='^FuzzBatchMesh$' -fuzztime=5s ./internal/sfq
gotest -run='^$' -fuzz='^FuzzWideBatch$' -fuzztime=5s ./internal/sfq
gotest -run='^$' -fuzz='^FuzzFrame$' -fuzztime=5s ./internal/serve
gotest -run='^$' -fuzz='^FuzzTwoLevel$' -fuzztime=5s ./internal/twolevel
gotest -run='^$' -fuzz='^FuzzSpacetime$' -fuzztime=5s ./internal/spacetime

echo "== mesh kernel conformance (short) =="
REPRO_MC_SHORT=1 gotest -run TestBitplaneConformance ./internal/sfq
REPRO_MC_SHORT=1 gotest -run TestBatchMeshConformance ./internal/sfq
REPRO_MC_SHORT=1 gotest -run TestStatsExitPathParity ./internal/sfq
REPRO_MC_SHORT=1 gotest -run 'TestBatchMeshWidthConformance|TestBatchMeshWidthsAgree|TestBatchMeshWidthZeroAllocs' ./internal/sfq

echo "== space-time decoding: oracle differential + zero-alloc gate =="
# Blocks decode on the shared greedy/MWPM cores over a layered geometry;
# the former event-list matcher is the oracle. A whole block (sampling,
# decode, correction) must allocate nothing once warm; run without
# -race (the detector's instrumentation allocates).
gotest -run 'TestSpacetimeMatchesOracle|TestDegeneratesTo2DCores|TestSpacetimeBlockZeroAllocs' -count=1 ./internal/spacetime

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

echo "== telemetry: obs race, live scrape, wall-clock guards =="
go test -race -count=1 ./internal/obs
REPRO_MC_SHORT=1 gotest -run TestObsMetricsSmokeSweep -count=1 .
REPRO_OBS_GUARD=1 gotest -run 'TestObsOverheadGuard|TestTraceOverheadGuard|TestSweepScalingGuard' -count=1 .

# One temporary directory holds every artifact the runs below write, so
# the tracked BENCH_pr*.json files stay untouched.
RUN_TMP=$(mktemp -d)
SERVE_PID=""
cleanup_run() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$RUN_TMP"
}
trap cleanup_run EXIT

echo "== decode hot-path benchmarks =="
gotest -run='^$' -bench BenchmarkDecodeHotPath -benchtime 100x -benchmem .
gotest -run='^$' -bench BenchmarkSFQMesh -benchtime 100x -benchmem .

echo "== repository benchmark: perfbench smoke =="
# Three seconds, not one: at one second sweep-batch's decode-call
# latency probe has too few samples per window for a supported p90 and
# perfbench exits 1.
for w in sweep-batch sweep-twolevel serve-r4k; do
	CARGO_TARGET_DIR="$RUN_TMP/bench_build" bash perfbench/run.sh \
		--workload "$w" --seed 1 --seconds 3 >"$RUN_TMP/perfbench.out"
	last=$(tail -n 1 "$RUN_TMP/perfbench.out")
	case "$last" in
	*'"correct":true'*) echo "perfbench $w: correct" ;;
	*)
		echo "perfbench $w: last line does not report \"correct\":true: $last" >&2
		exit 1
		;;
	esac
done

echo "== decode service end to end: serve + loadgen =="
# A live serve instance under open-loop Poisson load. -lanes 1 lowers
# capacity so the calibrated R/2, R, 2R sweep straddles saturation in
# about three seconds on any machine.
go build -o "$RUN_TMP/serve" ./cmd/serve
go build -o "$RUN_TMP/loadgen" ./cmd/loadgen
# -escalate: the run exercises the full two-level service path — flags
# on the wire, the bounded level-2 queue, and the merged two-tier
# latency signal into admission control. -esc-hot 14 keeps the
# escalation rate moderate at the loadgen workload's density.
"$RUN_TMP/serve" -d 9,13 -lanes 1 -escalate -esc-hot 14 -addr-file "$RUN_TMP/addr" &
SERVE_PID=$!
for _ in $(seq 50); do
	[ -s "$RUN_TMP/addr" ] && break
	sleep 0.1
done
TCP_ADDR=$(awk '/^tcp /{print $2}' "$RUN_TMP/addr")
[ -n "$TCP_ADDR" ] || { echo "serve did not publish its address"; exit 1; }
"$RUN_TMP/loadgen" -addr "$TCP_ADDR" -d 13 -duration 1s
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "== two-level frontier: accuracy vs latency =="
go run ./cmd/compare -frontier -distances 7,9,11 -frontier-p 0.03,0.06,0.09 \
	-cycles 2500 -seed 1 -out "$RUN_TMP/BENCH_pr7.json"

echo "CI OK"
