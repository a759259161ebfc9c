#!/bin/sh
# check.sh — the repository's full verification gate: formatting, vet,
# build, the tier-1 test suite (which also pins every BENCH_*.json
# artifact and asserts the fast-path, fleet-efficiency and takeover
# gates), the SMP race gate, short fuzz smokes over the decoders, and
# the kernel syscall, spawn and checkpoint benchmarks. It writes no
# file; `make artifacts` rewrites the artifacts.
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

echo "== kernel syscall, spawn and checkpoint benchmarks =="
go test -run '^$' -bench 'SyscallPlain|SyscallVerified|VerifyAllocs|Spawn|Checkpoint' \
    -benchtime 2x ./internal/kernel
