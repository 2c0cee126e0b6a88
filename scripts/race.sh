#!/usr/bin/env bash
# One-command robustness gate: static guards (vet, gofmt, no gob, the
# benchmark module still compiles), the tier-1 race sweep over the
# concurrency-heavy packages, the wire suite under race, and a short
# native-fuzz smoke over every committed fuzz target (seeds plus FUZZTIME
# of coverage-guided exploration per target).
#
#   scripts/race.sh              # full gate (~a few minutes)
#   FUZZTIME=0 scripts/race.sh   # skip the fuzz smoke (seeds still run
#                                # as regular tests in the race sweep)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

# The adaptive governor (internal/par) keeps stage pools serial on a
# single-CPU host, which would silently skip every parallel code path in
# the sweep; pin GOMAXPROCS up so the pools actually fan out under race.
export GOMAXPROCS="${GOMAXPROCS:-4}"

echo "== guard: go vet =="
go vet ./...

echo "== guard: gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# One wire: the framed codec of internal/dist is the only serialization
# between master and workers. (Tests reach gob only through a stock
# net/rpc client, which is what a pre-wire master looks like to a worker.)
echo "== guard: no production gob =="
if grep -rl '"encoding/gob"' --include='*.go' . | grep -v _test.go; then
    echo "race.sh: non-test file imports encoding/gob" >&2
    exit 1
fi

# bench/ is its own module, so root `go build ./...` never compiles it:
# this is the only gate that catches an API change breaking the benchmark.
echo "== guard: benchmark module =="
(cd bench && go vet . && go test .)

echo "== race: tier-1 concurrency-heavy packages =="
go test -race \
    ./internal/dist/... ./internal/assembly/... ./internal/overlap/... \
    ./internal/graph/... ./internal/coarsen/... ./internal/hybrid/... \
    ./internal/partition/... ./internal/checkpoint/... \
    ./internal/align/... ./internal/par/... ./internal/pq/... \
    ./internal/jobs/... ./internal/metrics/...

# Wire sweep: version handshake both ways (typed mismatch, gob and silent
# peers dropped within the bound), un-Wire bodies refused at send, frame
# growth on untrusted lengths, round-trip/corrupt-frame properties, the
# schema pin, over-the-wire == local equivalence, and the chaos transport
# under the handshake.
echo "== race: wire sweep =="
go test -race -run Wire ./internal/dist/ ./internal/assembly/ ./internal/overlap/

# Cancellation sweep: cancel-at-arbitrary-points on a healthy and on a
# re-hosting pool, the liveness rule (hung and wedged workers cut without
# a CallTimeout, slow calls and slow transfers never cut, an all-hung
# fleet finishing without a run deadline and ended by a shorter one),
# pool Close lifecycles and the facade signal/deadline paths
# (the root package is not part of the tier-1 race list above, so the
# facade tests run here).
echo "== race: cancellation chaos sweep =="
go test -race -run 'Cancel|Liveness|Gate|Close|Deadline' \
    ./ ./internal/dist/ ./internal/assembly/ ./internal/par/

# Stage reuse: one Stages swept over k, its directed graph cloned per
# Assemble and never trimmed, two Assemble calls on it at once (root
# package again; repeated because only a racing schedule shows a shared
# write).
echo "== race: stage reuse sweep =="
go test -race -count=5 -run 'StagesReuse' ./

# Multi-tenant sweep: the resident master's admission, lifecycle and
# fault-isolation scenarios (including the headline multi-worker chaos
# run) under race, alongside the dist/assembly tests they lean on.
echo "== race: multi-tenant sweep =="
go test -race -run 'Job|Admission|Tenant' \
    ./internal/jobs/ ./internal/dist/ ./internal/assembly/

if [ "$FUZZTIME" != "0" ]; then
    # -fuzz takes exactly one target per invocation.
    fuzz() {
        local pkg="$1" target="$2"
        echo "== fuzz: $pkg $target ($FUZZTIME) =="
        go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
    }
    fuzz ./internal/dist/ FuzzWireReader
    fuzz ./internal/dist/ FuzzReadFrame
    fuzz ./internal/assembly/ FuzzWireDecoders
    fuzz ./internal/assembly/ FuzzPhaseEngines
    fuzz ./internal/overlap/ FuzzWireDecoders
    fuzz ./internal/overlap/ FuzzSeedIndex
    fuzz ./internal/overlap/ FuzzJobRecords
    fuzz ./internal/overlap/ FuzzSubsetInvariant
    fuzz ./internal/dna/ FuzzReadFASTQ
    fuzz ./internal/dna/ FuzzReadFASTA
    fuzz ./internal/checkpoint/ FuzzDecode
    fuzz ./internal/align/ FuzzBitParallelNW
    fuzz ./internal/align/ FuzzOverlapVerdict
    fuzz ./internal/align/ FuzzBandLCS
    fuzz ./internal/align/ FuzzStrandMirror
    fuzz ./internal/jobs/ FuzzJobWire
fi

echo "ok"
