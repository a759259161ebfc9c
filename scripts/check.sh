#!/bin/sh
# check.sh — the repository's full verification gate: formatting, vet,
# build, the tier-1 test suite, the SMP race gate, short fuzz smokes
# over the decoders, the kernel syscall, spawn and checkpoint
# benchmarks, the fault-injection campaign, the cached-overhead
# regression guard, and the machine-readable summaries
# (BENCH_kernel.json, BENCH_batch.json, BENCH_fault.json).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test (tier 1) =="
go test ./...

# The race gate's package list lives in the Makefile's race target.
echo "== go test -race (SMP gate) =="
make race

echo "== fuzz smoke (auth-record decoding) =="
go test -run '^$' -fuzz FuzzAuthRecord -fuzztime 5s ./internal/kernel

echo "== fuzz smoke (sealed-domain opening) =="
go test -run '^$' -fuzz FuzzOpen -fuzztime 5s ./internal/seal

echo "== fuzz smoke (checkpoint decoding) =="
go test -run '^$' -fuzz FuzzCheckpointDecode -fuzztime 5s ./internal/ckpt

echo "== fuzz smoke (migration-envelope decoding) =="
go test -run '^$' -fuzz FuzzMigrationDecode -fuzztime 5s ./internal/ckpt

echo "== fuzz smoke (sockaddr decoding) =="
go test -run '^$' -fuzz FuzzSockAddrDecode -fuzztime 5s ./internal/net

echo "== fuzz smoke (pollfd-set decoding) =="
go test -run '^$' -fuzz FuzzPollSetDecode -fuzztime 5s ./internal/net

echo "== fuzz smoke (state-update batch encoding) =="
go test -run '^$' -fuzz FuzzBatchEncode -fuzztime 5s ./internal/policy

echo "== fuzz smoke (WAL record decoding) =="
go test -run '^$' -fuzz FuzzWALRecordDecode -fuzztime 5s ./internal/durable

echo "== fuzz smoke (swap-frame decoding) =="
go test -run '^$' -fuzz FuzzSwapFrameDecode -fuzztime 5s ./internal/ckpt

echo "== fuzz smoke (page-table-record decoding) =="
go test -run '^$' -fuzz FuzzPageTableDecode -fuzztime 5s ./internal/vm

echo "== kernel syscall, spawn and checkpoint benchmarks =="
go test -run '^$' -bench 'SyscallPlain|SyscallVerified|VerifyAllocs|Spawn|Checkpoint' \
    -benchtime 2x ./internal/kernel

# -guard 1.6 is the perf regression gate: fail if the cached getpid
# cost exceeds 1.6x the plain (unverified) cost.
echo "== BENCH_kernel.json =="
go run ./cmd/ascbench -table 4 -json BENCH_kernel.json -guard 1.6
echo "wrote BENCH_kernel.json"

# -netguard 70 is the event-loop scaling gate: the reduced sharded
# fleet (4 poll-event-loop replicas, 8 LB clients) must reach at least
# 70% parallel efficiency at 4 workers — replicas serialized behind a
# shared wait fail loudly here.
echo "== sharded-fleet efficiency guard =="
go run ./cmd/ascbench -netguard 70 -table none

# -takeoverguard is the durable-control-plane recovery gate: a director
# crash mid-migration on a durable 3-node cluster must be survived by
# the warm standby with every process re-attached or warm-restored and
# zero cold starts.
echo "== director takeover recovery guard =="
go run ./cmd/ascbench -takeoverguard -table none

echo "== BENCH_batch.json =="
go run ./cmd/ascbench -table batch -json BENCH_batch.json
echo "wrote BENCH_batch.json"

echo "== fault-injection campaign =="
go run ./cmd/ascfault -seed 1 -trials 3 -workers 4 -json BENCH_fault.json
