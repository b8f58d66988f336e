#!/usr/bin/env bash
# Builds tpmd and the perfbench program from this working tree, then runs
# perfbench with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mine_cold --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 15     # steadiness report
#
# The build cache, binaries, logs and scratch data all stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tpmd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; go.mod, cmd/tpmd and perfbench/ must exist" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/tpmd" ./cmd/tpmd >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
