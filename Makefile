GO ?= go

.PHONY: build test race bench artifacts check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the SMP gate: the packages that share kernel state across
# goroutines — the worker pool, the kernel's sharded structures, the
# fleet API, the parallel fault campaign, the sweeps, the cluster and
# durable control plane, and paging — must be clean under the race
# detector, and so must the network sweep, run through its artifact
# test. This is the only copy of the package list; check.sh runs this
# target.
race:
	$(GO) test -race ./internal/sched/... ./internal/kernel/... ./internal/core/... \
		./internal/fault/... ./internal/bench/... ./internal/net/... ./internal/workload/... \
		./internal/cluster/... ./internal/durable/... ./internal/vm/... ./internal/ckpt/...
	$(GO) test -race -run 'TestArtifacts/net' .

bench:
	$(GO) test -run '^$$' -bench 'SyscallPlain|SyscallVerified|VerifyAllocs|Spawn|Checkpoint' \
		-benchtime 2x ./internal/kernel
	$(GO) test -run '^$$' -bench 'Interpreter' -benchtime 2x ./internal/vm

# artifacts rewrites the eight committed BENCH_*.json files from this
# build: Table 4 (kernel), the smp, ckpt, net, batch, cluster and mem
# sweeps of bench.Registry, and the seed-1 fault matrix. Tier 1's
# TestArtifacts fails until a change that moves a figure is committed
# this way.
artifacts:
	$(GO) test . -run TestArtifacts -update

# check is the full gate: gofmt, vet, build, tier-1 tests (which pin
# every artifact and its gates), the SMP race gate, the fuzz smokes and
# the kernel benchmarks.
check:
	sh scripts/check.sh
