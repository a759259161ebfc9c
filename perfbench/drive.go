package main

import (
	"errors"
	"fmt"
	"time"

	"asc/internal/kernel"
	"asc/internal/vm"
)

// maxCycles bounds every job, as core.System.Exec does.
const maxCycles = 4_000_000_000

// counts are one job's modeled counters. They are deterministic for a
// given job on every workload whose clients do not share a verify cache.
type counts struct {
	Cycles, Syscalls, Verified, AES uint64
	Hits, Misses, Invals, Shares    uint64
	Faults, Evicts, Swapins         uint64
}

func (c *counts) add(p *kernel.Process) {
	cs := p.CacheStats()
	f, e, s := p.PageStats()
	c.Faults += f
	c.Evicts += e
	c.Swapins += s
	c.Shares += cs.Shares
	// The remaining counters travel in a checkpoint: the restored process
	// carries them forward, so its values are the job's totals.
	c.Cycles, c.Syscalls, c.Verified, c.AES = p.CPU.Cycles, p.SyscallCount, p.VerifyCount, p.VerifyAESBlocks
	c.Hits, c.Misses, c.Invals = cs.Hits, cs.Misses, cs.Invalidations
}

// full is the number of verifications that ran the AES path.
func (c counts) full() uint64 { return c.Verified - c.Hits - c.Shares }

// stable is the part of c that must repeat exactly between two runs of the
// job. When clients race on the fleet cache, which of them verifies a
// site first decides hits, adoptions, AES work and cycles; only the
// call and verification totals are fixed.
func (c counts) stable(racy bool) counts {
	if racy {
		return counts{Syscalls: c.Syscalls, Verified: c.Verified}
	}
	return c
}

// jobResult is one executed job.
type jobResult struct {
	dur    time.Duration // Spawn to exit, wall time
	c      counts
	output string
	exit   uint32
	killed bool
	err    error
}

// execJob runs one job on k: Spawn, Run to exit, and for a checkpointed
// job a Checkpoint → Restore round trip at ckptAt cycles. With tr nil the
// process runs through kernel.Run; otherwise tr drives it step by step
// and records spans.
func execJob(k *kernel.Kernel, pr *program, exeAuth bool, j jobSpec, ckptAt uint64, tr *tracer) jobResult {
	exe := pr.orig
	if exeAuth {
		exe = pr.auth
	}
	run := func(p *kernel.Process, limit uint64) error {
		if tr == nil {
			return k.Run(p, limit)
		}
		return tr.drive(p, pr, limit)
	}
	var r jobResult
	start := time.Now()
	p, err := k.Spawn(exe, pr.name)
	if tr != nil {
		tr.span(spanSpawn, start, time.Since(start))
	}
	if err != nil {
		r.err = err
		return r
	}
	p.Stdin = []byte(j.stdin)
	if ckptAt > 0 {
		q, err := roundTrip(k, p, pr, ckptAt, run, tr)
		if err != nil {
			r.err = err
			return r
		}
		r.c.add(p)
		p = q
	}
	r.err = run(p, maxCycles)
	r.dur = time.Since(start)
	r.c.add(p)
	r.output, r.exit, r.killed = p.Output(), p.Code, p.Killed
	if r.err == nil && !p.Exited && !p.Killed {
		r.err = errors.New("process did not exit")
	}
	if tr != nil {
		tr.span(spanJob, start, r.dur)
	}
	return r
}

// roundTrip runs p to ckptAt cycles, seals it with Checkpoint and brings
// it back with Restore; the restored process finishes the job.
func roundTrip(k *kernel.Kernel, p *kernel.Process, pr *program, ckptAt uint64,
	run func(*kernel.Process, uint64) error, tr *tracer) (*kernel.Process, error) {
	if err := run(p, ckptAt); !errors.Is(err, vm.ErrCycleLimit) {
		return nil, fmt.Errorf("checkpoint point %d not reached: %v", ckptAt, err)
	}
	t0 := time.Now()
	blob, err := k.Checkpoint(p, 1)
	if tr != nil {
		tr.span(spanCheckpoint, t0, time.Since(t0))
		tr.agg.blobBytes += uint64(len(blob))
	}
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	q, err := k.Restore(pr.auth, pr.name, blob, 1)
	if tr != nil {
		tr.span(spanRestore, t0, time.Since(t0))
	}
	return q, err
}
