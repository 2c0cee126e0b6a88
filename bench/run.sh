#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and
# runs it from the checkout's root. Everything the build writes (Go's build
# cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOTOOLCHAIN=local \
		XDG_CONFIG_HOME="$build/config" go build -o "$build/focus-e2e" .
)
cd "$root"
exec "$build/focus-e2e" "$@"
