#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/, run artifacts (span files) under .bench_out/.
set -euo pipefail
root=$(pwd)
bench="$root/perfbench"
if [[ ! -f "$bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod must exist)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
# Build with no GOMAXPROCS override so the compiler uses every core.
(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$root/.bench_out" "$@"
