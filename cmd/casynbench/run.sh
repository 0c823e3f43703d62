#!/usr/bin/env bash
# Builds casynbench from the checkout's source and runs it with the
# given arguments, from the checkout root. The binary and every Go
# cache stay inside the checkout, under .casynbench/.
#
#   bash cmd/casynbench/run.sh --workload oneshot --seed 1 --seconds 15 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
work="$root/.casynbench"
mkdir -p "$work/tmp" "$work/home"
export HOME="$work/home" XDG_CONFIG_HOME="$work/home" XDG_CACHE_HOME="$work/home"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$work/casynbench" .)
cd "$root"
exec "$work/casynbench" "$@"
