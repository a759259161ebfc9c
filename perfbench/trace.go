package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"asc/internal/kernel"
	"asc/internal/vm"
)

// spanKind names the layer boundary a span covers.
type spanKind uint8

const (
	spanJob spanKind = iota
	spanSpawn
	spanTrapFull  // trap whose verification ran the AES path
	spanTrapHit   // trap verified by a first-level cache hit
	spanTrapAdopt // trap verified by adopting an already-verified entry
	spanTrapPlain // trap without verification
	spanFaultRead
	spanFaultWrite
	spanCheckpoint
	spanRestore
)

var spanNames = [...]string{"job", "spawn", "trap.full", "trap.hit", "trap.adopt", "trap.plain",
	"fault.read", "fault.write", "checkpoint", "restore"}

// span is one recorded interval. Spans of one job share its id; the job
// span is the parent of every other span with that id.
type span struct {
	job   int32
	kind  spanKind
	start int64 // ns since the run's clock origin
	dur   int64 // ns
}

// layerAgg accumulates per-layer time and work over every traced job,
// including spans beyond the kept-span cap.
type layerAgg struct {
	jobs      int
	n         [len(spanNames)]uint64
	ns        [len(spanNames)]int64
	trapAES   uint64 // AES blocks charged inside verified trap spans
	verified  uint64 // verified trap spans
	steps     uint64 // non-trap, non-fault steps
	stepNs    int64  // time of those steps
	blobBytes uint64
}

func (a *layerAgg) merge(b *layerAgg) {
	a.jobs += b.jobs
	for i := range a.n {
		a.n[i] += b.n[i]
		a.ns[i] += b.ns[i]
	}
	a.trapAES += b.trapAES
	a.verified += b.verified
	a.steps += b.steps
	a.stepNs += b.stepNs
	a.blobBytes += b.blobBytes
}

func (a *layerAgg) meanNs(k spanKind) float64 {
	if a.n[k] == 0 {
		return 0
	}
	return float64(a.ns[k]) / float64(a.n[k])
}

// tracer runs one client goroutine's traced jobs. It is used by that
// goroutine only; the run merges tracers after the clients stop.
type tracer struct {
	origin time.Time
	job    int32
	agg    layerAgg
	spans  []span
	limit  int
}

func newTracer(origin time.Time, limit int) *tracer {
	return &tracer{origin: origin, limit: limit, spans: make([]span, 0, limit)}
}

func (t *tracer) span(k spanKind, start time.Time, d time.Duration) {
	t.agg.n[k]++
	t.agg.ns[k] += int64(d)
	if k == spanJob {
		t.agg.jobs++
	}
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, span{job: t.job, kind: k, start: start.Sub(t.origin).Nanoseconds(), dur: int64(d)})
	}
}

// drive runs p like kernel.Run, but one vm.CPU.Step at a time. The clock
// is read around every trap site and, in a paged address space, around
// every load and store; such a step is a fault span if the page counters
// moved. Every other step is timed in bulk.
func (t *tracer) drive(p *kernel.Process, pr *program, limit uint64) error {
	cpu := p.CPU
	paged := p.Mem.Paging() != nil
	start := time.Now()
	var spanned time.Duration
	var err error
	for !cpu.Halted {
		if cpu.Cycles >= limit {
			err = fmt.Errorf("%w (%d cycles)", vm.ErrCycleLimit, cpu.Cycles)
			break
		}
		kind := pr.kindAt(cpu.PC)
		switch {
		case kind == stepTrap:
			v0, a0, c0 := p.VerifyCount, p.VerifyAESBlocks, p.CacheStats()
			t0 := time.Now()
			err = cpu.Step()
			d := time.Since(t0)
			spanned += d
			c1 := p.CacheStats()
			sk := spanTrapPlain
			switch {
			case c1.Hits != c0.Hits:
				sk = spanTrapHit
			case c1.Shares != c0.Shares:
				sk = spanTrapAdopt
			case p.VerifyCount != v0:
				sk = spanTrapFull
			}
			if p.VerifyCount != v0 {
				t.agg.verified++
				t.agg.trapAES += p.VerifyAESBlocks - a0
			}
			t.span(sk, t0, d)
		case paged && (kind == stepLoad || kind == stepStore):
			f0, _, _ := p.PageStats()
			t0 := time.Now()
			err = cpu.Step()
			d := time.Since(t0)
			if f1, _, _ := p.PageStats(); f1 != f0 {
				spanned += d
				sk := spanFaultRead
				if kind == stepStore {
					sk = spanFaultWrite
				}
				t.span(sk, t0, d)
			} else {
				t.agg.steps++
			}
		default:
			err = cpu.Step()
			t.agg.steps++
		}
		if err != nil {
			break
		}
	}
	t.agg.stepNs += int64(time.Since(start) - spanned)
	if err != nil && p.Killed {
		return nil // a kill on the fault path unwinds as a VM error; kernel.Run agrees
	}
	return err
}

// writeSpans writes the kept spans as CSV (job,span,start_ns,dur_ns).
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "job,span,start_ns,dur_ns")
	for _, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d\n", s.job, spanNames[s.kind], s.start, s.dur)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
