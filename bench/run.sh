#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of the checkout. Everything the build and the run write stays
# under .bench_build/ in the checkout (Go's build cache and temporary files
# included), which the root .gitignore names. Without the repository's own
# packages beside this directory the build fails and nothing is printed on
# standard output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=-modcacherw
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$here" && go build -o "$out/wisedb-bench" .) >&2
cd "$root"
exec "$out/wisedb-bench" "$@"
