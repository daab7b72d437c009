#!/usr/bin/env bash
# Builds hth-load from the checkout it sits in and runs it. Run it from
# the root of the checkout with hth-load's own flags, for example:
#
#   bash cmd/hth-load/run.sh --workload taint-dense --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache, its temporary files and its settings
# directory all live under .bench_build/ in the checkout, so nothing is
# written elsewhere.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/cmd/hth-load" build -o "$build/hth-load" .
exec "$build/hth-load" "$@"
