#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload fig3 --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache lives under .bench_build/, so the run
# reads and writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
commit=unknown
if [ -d "$root/.git" ] && rev="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	commit="$rev"
	git -C "$root" diff --quiet HEAD -- 2>/dev/null || commit="$commit+dirty"
fi
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
		GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
