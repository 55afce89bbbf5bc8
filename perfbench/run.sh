#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
# Run from the repository root:
#
#	bash perfbench/run.sh --workload sweep-batch --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, module cache, binary)
# stays under $CARGO_TARGET_DIR, default .bench_build, in the root. The
# REPRO_* knobs and Go runtime variables are pinned here, not inherited,
# so a stray environment cannot change what a run measures; the program
# re-checks the pinned values and refuses to run if they differ.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/home" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
# The Go toolchain keeps telemetry under the user's config directory, and
# obs.NewManifest asks git for the revision: point both at the build
# directory, and keep git from searching directories above the checkout.
export HOME=$out/home XDG_CONFIG_HOME=$out/config GIT_CONFIG_NOSYSTEM=1
export GIT_CEILING_DIRECTORIES=$(dirname "$root")

for v in $(compgen -e); do
	case $v in REPRO_*) unset "$v" ;; esac
done
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS
export REPRO_SFQ_KERNEL=bitplane REPRO_SFQ_WIDTH=4 REPRO_TRACE_SAMPLE=off REPRO_SERVE_WEIGHTED=1

(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
