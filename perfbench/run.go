package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"asc/internal/bench"
	"asc/internal/workload"
)

// setupReps is how many times a timed phase repeats set-up (build,
// install, boot), spread evenly over the phase; set-up time is the median.
// Spreading the repetitions keeps one slow stretch of the host from
// moving the figure.
const setupReps = 25

// baseline is one job's permissive reference: the output oracle and the
// denominator of the modeled overhead.
type baseline struct {
	output string
	exit   uint32
	cycles uint64
}

// runner is one benchmark run of one workload.
type runner struct {
	w     workloadDef
	key   []byte
	progs []*program
	jobs  []jobSpec
	srcs  []source
	// setup holds the times of the set-up repetitions of the timed phase.
	setup []setupTimes
	// base and ckptAt are per job: the permissive reference and, for a
	// checkpointed job, the cycle point of its round trip.
	base   []baseline
	ckptAt []uint64
	// ref is each job's stable counts from its first enforced run; every
	// later run of the job must match it.
	ref      []counts
	oracle   time.Duration
	attempts int
	failures int
	firstErr error
	nextJob  atomic.Int32 // job ids for spans
}

func newRunner(w workloadDef, seed uint64) (*runner, error) {
	b := &runner{w: w, key: bench.DefaultKey}
	b.srcs, b.jobs = w.gen(rand.New(rand.NewPCG(seed, 0x61736362)))
	progs, _, err := b.setUp()
	if err != nil {
		return nil, err
	}
	b.progs = progs
	if err := b.runOracle(); err != nil {
		return nil, err
	}
	return b, nil
}

// setUp builds and installs the corpus and boots a System: what a user
// pays before the first job.
func (b *runner) setUp() ([]*program, setupTimes, error) {
	progs, t, err := buildCorpus(b.srcs, b.key)
	if err != nil {
		return nil, t, err
	}
	start := time.Now()
	if _, err := boot(b.key, false, b.w.opts); err != nil {
		return nil, t, err
	}
	t.boot = time.Since(start)
	return progs, t, nil
}

// runOracle runs every job once on a permissive System with the
// uninstalled binaries and records the reference outputs and cycles.
func (b *runner) runOracle() error {
	start := time.Now()
	s, err := boot(nil, true, b.w.opts)
	if err != nil {
		return err
	}
	b.base = make([]baseline, len(b.jobs))
	b.ckptAt = make([]uint64, len(b.jobs))
	for i, j := range b.jobs {
		r := execJob(s.Kernel, b.progs[j.prog], false, j, 0, nil)
		if r.err != nil || r.killed {
			return fmt.Errorf("baseline job %d (%s): killed=%v err=%v", i, b.progs[j.prog].name, r.killed, r.err)
		}
		b.base[i] = baseline{output: r.output, exit: r.exit, cycles: r.c.Cycles}
		if j.ckpt {
			// Enforced cycles never fall below permissive ones, so the
			// enforced process is still running at this point.
			b.ckptAt[i] = r.c.Cycles / 2
		}
	}
	b.oracle = time.Since(start)
	return nil
}

// epochResult is what one System epoch measured.
type epochResult struct {
	wall     time.Duration // boot plus every job, closed loop
	jobs     []jobResult
	alloc    uint64 // bytes allocated during the epoch
	liveHeap uint64 // heap after a forced GC with the System still alive
}

// runEpoch boots a fresh enforcing System and runs the whole job list on
// it from w.clients closed-loop goroutines. With tracers non-nil, client c
// drives its jobs through tracers[c].
func (b *runner) runEpoch(tracers []*tracer) (*epochResult, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	s, err := boot(b.key, false, b.w.opts)
	if err != nil {
		return nil, err
	}
	res := make([]jobResult, len(b.jobs))
	var next atomic.Int32
	var wg sync.WaitGroup
	for c := range b.w.clients {
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(b.jobs) {
					return
				}
				j := b.jobs[i]
				if tr != nil {
					tr.job = b.nextJob.Add(1)
				}
				res[i] = execJob(s.Kernel, b.progs[j.prog], true, j, b.ckptAt[i], tr)
			}
		}()
	}
	wg.Wait()
	e := &epochResult{wall: time.Since(start), jobs: res}
	runtime.ReadMemStats(&ms)
	e.alloc = ms.TotalAlloc - alloc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	e.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(s)
	b.check(res)
	return e, nil
}

// check compares every job of an epoch with its permissive baseline and
// with the counts of its first enforced run.
func (b *runner) check(res []jobResult) {
	for i, r := range res {
		b.attempts++
		var bad error
		base := b.base[i]
		switch {
		case r.err != nil:
			bad = r.err
		case r.killed:
			bad = fmt.Errorf("killed")
		case r.output != base.output || r.exit != base.exit:
			bad = fmt.Errorf("output %q exit %d, baseline %q exit %d", abbrev(r.output), r.exit, abbrev(base.output), base.exit)
		case b.ref[i] == (counts{}):
			b.ref[i] = r.c.stable(b.w.racy)
		case r.c.stable(b.w.racy) != b.ref[i]:
			bad = fmt.Errorf("counts %+v, first run %+v", r.c.stable(b.w.racy), b.ref[i])
		}
		if bad != nil {
			b.failures++
			if b.firstErr == nil {
				b.firstErr = fmt.Errorf("job %d (%s): %w", i, b.progs[b.jobs[i].prog].name, bad)
			}
		}
	}
}

func abbrev(s string) string {
	if len(s) > 32 {
		return s[:32] + "..."
	}
	return s
}

// measured is the outcome of a timed phase: its epochs, in order.
type measured struct {
	epochs []*epochResult
}

// perSec is the count of every epoch over their summed wall time. The
// host's speed moves in phases of several seconds, so a median of epoch
// rates follows whichever phase covers most of a run; the rate over the
// whole phase averages them.
func (m *measured) perSec(count func(e *epochResult) float64) float64 {
	var n, secs float64
	for _, e := range m.epochs {
		n += count(e)
		secs += e.wall.Seconds()
	}
	return n / secs
}

func (m *measured) jobsPerSec() float64 {
	return m.perSec(func(e *epochResult) float64 { return float64(len(e.jobs)) })
}

// measure runs epochs until d has passed, always at least two, and
// repeats set-up setupReps times in between. With tracers set, every other
// epoch is traced (starting with the second) and returned separately.
func (b *runner) measure(d time.Duration, tracers []*tracer) (plain, traced *measured, err error) {
	plain, traced = &measured{}, &measured{}
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		for len(b.setup) < setupReps && time.Since(start) >= d*time.Duration(len(b.setup))/setupReps {
			_, t, err := b.setUp()
			if err != nil {
				return nil, nil, err
			}
			b.setup = append(b.setup, t)
		}
		var trs []*tracer
		m := plain
		if tracers != nil && i%2 == 1 {
			trs, m = tracers, traced
		}
		e, err := b.runEpoch(trs)
		if err != nil {
			return nil, nil, err
		}
		m.epochs = append(m.epochs, e)
	}
	return plain, traced, nil
}

// warmUp runs one untimed epoch: it fills the reference counts and lets
// lazy set-up finish before timing.
func (b *runner) warmUp() error {
	b.ref = make([]counts, len(b.jobs))
	_, err := b.runEpoch(nil)
	return err
}

// table6Error is the mean absolute difference, in percentage points,
// between the macro jobs' modeled overhead and Table 6's.
func (b *runner) table6Error(c []counts) float64 {
	var sum float64
	var n int
	for i, j := range b.jobs {
		spec, ok := workload.PerfSpecByName(b.progs[j.prog].name)
		if !ok {
			continue
		}
		model := 100 * (float64(c[i].Cycles)/float64(b.base[i].cycles) - 1)
		sum += math.Abs(model - spec.PaperOverhead)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// spawnAllocKiB spawns each corpus binary a few times on a fresh System,
// serially, and returns the median bytes one Spawn allocates, in KiB.
func (b *runner) spawnAllocKiB() (float64, error) {
	s, err := boot(b.key, false, b.w.opts)
	if err != nil {
		return 0, err
	}
	var samples []float64
	var ms runtime.MemStats
	for range 4 {
		for _, pr := range b.progs {
			runtime.ReadMemStats(&ms)
			a0 := ms.TotalAlloc
			if _, err := s.Kernel.Spawn(pr.auth, pr.name); err != nil {
				return 0, err
			}
			runtime.ReadMemStats(&ms)
			samples = append(samples, float64(ms.TotalAlloc-a0)/1024)
		}
	}
	return median(samples), nil
}

// baseHeap is the live heap with the corpus loaded and no System.
func baseHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
