#!/usr/bin/env bash
# Builds the benchmark program and cmd/knnserve from source, then runs one
# workload. Run it from the repository root:
#
#	bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries) stays under the build
# directory inside the checkout: $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/knnserve" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/knnserve not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bin/knnserve" ./cmd/knnserve
(cd perfbench && go build -o "$out/bin/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/bin/perfbench" --server "$out/bin/knnserve" --commit "$commit" "$@"
