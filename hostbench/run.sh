#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs one workload.
#
#   bash hostbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs, the Go build cache and the
# traced run's span file go to $CARGO_TARGET_DIR (default .bench_build),
# inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/hostbench/tmp"

# Keep every file the go command writes inside the checkout, and build
# with the installed toolchain only.
export GOWORK=off GOTOOLCHAIN=local GOENV=off
export GOCACHE="$out/hostbench/gocache" GOPATH="$out/hostbench/gopath"
export GOTMPDIR="$out/hostbench/tmp" XDG_CONFIG_HOME="$out/hostbench/config"
(cd "$here" && go build -o "$out/hostbench/hostbench" .)
exec "$out/hostbench/hostbench" --out "$out/hostbench" "$@"
