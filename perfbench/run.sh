#!/usr/bin/env bash
# Builds and runs pathflow's end-to-end benchmark from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and every file the benchmark writes stay
# under .bench_build in the checkout. The benchmark is a module of its
# own that builds against the pathflow module at the checkout root;
# without that module the script fails before measuring anything.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: no pathflow module at $root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own settings and telemetry files
# in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
