#!/usr/bin/env bash
# Runs the end-to-end benchmark (bench/run.sh; all flags pass through,
# e.g. --compare A.json B.json) behind a vet+gofmt guard, so numbers are
# never published from a tree that wouldn't pass review. Package
# Benchmark* functions are the micro explanations of a delta measured
# here; run them with `go test -run '^$' -bench . <package>`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== guard: go vet =="
go vet ./...
(cd bench && go vet .)

echo "== guard: gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

exec bash bench/run.sh "$@"
