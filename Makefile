GO ?= go

.PHONY: build test race bench smp ckpt fault net batch cluster mem check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the SMP gate: the packages that share kernel state across
# goroutines — the worker pool, the kernel's sharded structures, the
# fleet API, the parallel fault campaign, the sweeps, the cluster and
# durable control plane, and paging — must be clean under the race
# detector. This is the only copy of the package list; check.sh runs
# this target.
race:
	$(GO) test -race ./internal/sched/... ./internal/kernel/... ./internal/core/... \
		./internal/fault/... ./internal/bench/... ./internal/net/... ./internal/workload/... \
		./internal/cluster/... ./internal/durable/... ./internal/vm/... ./internal/ckpt/...

bench:
	$(GO) test -run '^$$' -bench 'SyscallPlain|SyscallVerified|VerifyAllocs|Spawn|Checkpoint' \
		-benchtime 2x ./internal/kernel
	$(GO) test -run '^$$' -bench 'Interpreter' -benchtime 2x ./internal/vm

# fault runs the deterministic fault-injection campaign — every scenario
# of the registry in internal/fault, on the kernel, checkpoint, cluster
# and durable control-plane layers — and emits the machine-readable
# matrix (same seed -> byte-identical JSON). ascfault -classes selects
# scenarios by name.
fault:
	$(GO) run ./cmd/ascfault -seed 1 -trials 3 -workers 4 -json BENCH_fault.json

# The six sweep targets regenerate BENCH_<target>.json through
# scripts/regen.sh, which refuses to overwrite a dirty artifact unless
# FORCE=1:
#   smp      the 1/2/4/8-worker throughput sweep (8 verified processes
#            per Table-4 workload, modeled makespan);
#   ckpt     the crash-recovery cadence sweep;
#   net      the network fleet sweep: clients x workers under
#            enforcement off/on/cached;
#   batch    the group-commit sweep: burst size x cache mode on an
#            8-process getpid fleet (fails unless cost per call falls
#            strictly as the burst grows);
#   cluster  the multi-node failover sweep: cluster width x heartbeat
#            cadence with node 1 crashed mid-run, plus the
#            director-takeover arm on the durable control plane;
#   mem      the paged-memory working-set sweep: resident budget x
#            working set with the authenticated swap device off,
#            enforced, and enforced+cached.
smp ckpt net batch cluster mem:
	sh scripts/regen.sh $@

# check is the full gate: gofmt, vet, build, tier-1 tests, the SMP race
# gate, the fuzz smokes, the kernel benchmarks, the fault campaign, the
# cached-overhead, fleet-efficiency, and takeover-recovery guards, and
# the machine-readable summaries (BENCH_kernel.json, BENCH_batch.json,
# BENCH_fault.json).
check:
	sh scripts/check.sh

clean:
	rm -f BENCH_kernel.json BENCH_fault.json BENCH_smp.json BENCH_ckpt.json \
		BENCH_net.json BENCH_batch.json BENCH_cluster.json BENCH_mem.json
