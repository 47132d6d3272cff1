#!/usr/bin/env bash
# Builds the benchmark and the sweepd binary from this checkout's sources,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
  GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOENV=off
(
  cd "$here"
  go build -buildvcs=false -o "$out/perfbench" .
  go build -buildvcs=false -o "$out/sweepd" checkpointsim/cmd/sweepd
) >&2
cd "$root"
exec "$out/perfbench" --sweepd "$out/sweepd" --workdir "$out" "$@"
