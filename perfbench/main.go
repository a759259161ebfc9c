// Command perfbench is the repository's benchmark. It drives the system
// through its public functions on one of four seeded workloads (macro,
// syscall, fleet, paged) for a fixed wall-clock time, checks every job's
// output against a permissive baseline, and prints one JSON result line.
//
//	perfbench --workload macro --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it alternates untraced and traced System epochs and
// reports the per-layer metrics; the traced epochs drive every process
// one vm.CPU.Step at a time and write their spans to
// .bench_build/perfbench-trace-<workload>.csv under the working directory.
//
// Every metric says which time it uses: "modeled" metrics come from the
// deterministic cycle model of internal/vm and internal/kernel, "host"
// metrics are wall time or Go heap of this process. See BENCHMARK.json
// at the repository root for the metric list and what each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: macro, syscall, fleet or paged")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w workloadDef, seed uint64, d time.Duration, traced bool) (*result, error) {
	b, err := newRunner(w, seed)
	if err != nil {
		return nil, err
	}
	if err := b.warmUp(); err != nil {
		return nil, err
	}
	heap0 := baseHeap()
	var tracers []*tracer
	if traced {
		for _, pr := range b.progs {
			pr.decodeText()
		}
		origin := time.Now()
		for range w.clients {
			tracers = append(tracers, newTracer(origin, spanCap/w.clients))
		}
	}
	plain, tr, err := b.measure(d, tracers)
	if err != nil {
		return nil, err
	}

	fmt.Printf("workload %s seed %d: epoch %d jobs, %d client(s), %d timed epochs, oracle %.3fs\n",
		w.name, seed, len(b.jobs), w.clients, len(plain.epochs)+len(tr.epochs), b.oracle.Seconds())
	res := &result{Metrics: map[string]metric{}}
	if traced {
		if err := b.layerMetrics(res, plain, tr, tracers, heap0); err != nil {
			return nil, err
		}
	} else {
		b.endToEnd(res, plain)
	}

	fmt.Printf("exact counts digest %016x (%s)\n", b.countsDigest(), countsScope(w))
	res.Attempted, res.Failed = b.attempts, b.failures
	res.Correct = b.failures == 0
	fmt.Printf("failed_ratio %.4f (%d of %d jobs)\n", float64(b.failures)/float64(b.attempts), b.failures, b.attempts)
	if b.firstErr != nil {
		fmt.Println("first failure:", b.firstErr)
	}
	return res, nil
}

// spanCap bounds the spans a traced run keeps for its CSV; the per-layer
// metrics aggregate every span regardless.
const spanCap = 100_000

func countsScope(w workloadDef) string {
	if w.racy {
		return "per-job syscalls and verifications; two clients race on the shared cache, so the hit/adopt/miss split, AES blocks and cycles may differ between same-seed runs"
	}
	return "per-job modeled cycles, syscalls, verifications, AES blocks, cache and paging counters"
}

// countsDigest hashes every job's stable counts in job order: two runs
// with the same seed print the same digest.
func (b *runner) countsDigest() uint64 {
	h := fnv.New64a()
	for _, c := range b.ref {
		fmt.Fprintf(h, "%+v\n", c)
	}
	return h.Sum64()
}

// tailPct is the percentile job_tail_ms reports on every workload; a run
// leaves a hundred jobs or more beyond it. On fleet, whose runs would
// allow p99, p99 follows garbage-collector pauses and spread about as wide
// as its bound between runs of the same code. It is fixed so that a
// faster program does not move the metric to another percentile.
const tailPct = 90.0

// endToEnd fills the end-to-end metrics from the untraced epochs.
func (b *runner) endToEnd(res *result, m *measured) {
	var n int
	var cycles, baseCycles, alloc uint64
	var durs, heaps []float64
	for _, e := range m.epochs {
		n += len(e.jobs)
		alloc += e.alloc
		heaps = append(heaps, float64(e.liveHeap)/(1<<20))
		for i, r := range e.jobs {
			durs = append(durs, float64(r.dur)/1e6)
			cycles += r.c.Cycles
			baseCycles += b.base[i].cycles
		}
	}
	verified := m.perSec(func(e *epochResult) float64 {
		var v uint64
		for _, r := range e.jobs {
			v += r.c.Verified
		}
		return float64(v)
	})
	var setups []float64
	for _, t := range b.setup {
		setups = append(setups, t.total().Seconds())
	}
	p := tailPct
	fmt.Printf("job_tail_ms is p%g of %d jobs (%d beyond it)\n", p, len(durs), int(float64(len(durs))*(1-p/100)))
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", median(setups), "s")
	put("jobs_per_s", m.jobsPerSec(), "1/s")
	put("job_p50_ms", median(durs), "ms")
	put("job_tail_ms", quantile(durs, p/100), "ms")
	put("verified_calls_per_s", verified, "1/s")
	put("modeled_overhead_pct", 100*(float64(cycles)/float64(baseCycles)-1), "%")
	put("alloc_mb_per_job", float64(alloc)/(1<<20)/float64(n), "MiB")
	put("live_heap_mb", median(heaps), "MiB")
}

// layerMetrics fills the per-layer metrics from the traced epochs, plus
// the untraced epochs they alternate with for the tracing overhead and
// the retained heap.
func (b *runner) layerMetrics(res *result, plain, traced *measured, tracers []*tracer, heap0 uint64) error {
	var agg layerAgg
	for _, t := range tracers {
		agg.merge(&t.agg)
	}
	var c counts
	var full uint64
	for _, e := range traced.epochs {
		for _, r := range e.jobs {
			c.Hits += r.c.Hits
			c.Shares += r.c.Shares
			c.Invals += r.c.Invals
			c.Verified += r.c.Verified
			c.Faults += r.c.Faults
			c.Evicts += r.c.Evicts
			c.Swapins += r.c.Swapins
			full += r.c.full()
		}
	}
	jobs := float64(agg.jobs)
	var retained, builds, installs []float64
	for _, e := range plain.epochs {
		retained = append(retained, (float64(e.liveHeap)-float64(heap0))/1024/float64(len(e.jobs)))
	}
	for _, t := range b.setup {
		builds = append(builds, float64(t.build)/1e6)
		installs = append(installs, float64(t.install)/1e6)
	}
	spawnKiB, err := b.spawnAllocKiB()
	if err != nil {
		return err
	}
	var traps uint64
	var trapNs int64
	for _, k := range []spanKind{spanTrapFull, spanTrapHit, spanTrapAdopt, spanTrapPlain} {
		traps += agg.n[k]
		trapNs += agg.ns[k]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	t6 := 0.0
	if b.w.name == "macro" {
		t6 = b.table6Error(b.ref)
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("toolchain.build_ms", median(builds), "ms")
	put("installer.install_ms", median(installs), "ms")
	put("kernel.spawn_us", agg.meanNs(spanSpawn)/1e3, "us")
	put("kernel.spawn_alloc_kb", spawnKiB, "KiB")
	put("kernel.retained_kb_per_job", median(retained), "KiB")
	put("vm.steps", ratio(float64(agg.steps), jobs), "count/job")
	put("vm.step_ns", ratio(float64(agg.stepNs), float64(agg.steps)), "ns")
	put("kernel.traps", ratio(float64(traps), jobs), "count/job")
	put("kernel.trap_ns", ratio(float64(trapNs), float64(traps)), "ns")
	put("verify.full_ns", agg.meanNs(spanTrapFull), "ns")
	put("verify.hit_ns", agg.meanNs(spanTrapHit), "ns")
	put("verify.adopt_ns", agg.meanNs(spanTrapAdopt), "ns")
	put("verify.full", ratio(float64(full), jobs), "count/job")
	put("verify.hit", ratio(float64(c.Hits), jobs), "count/job")
	put("verify.adopt", ratio(float64(c.Shares), jobs), "count/job")
	put("verify.invalidations", ratio(float64(c.Invals), jobs), "count/job")
	put("verify.useful_ratio", ratio(float64(c.Hits+c.Shares), float64(c.Verified)), "ratio")
	put("mac.aes_blocks_per_call", ratio(float64(agg.trapAES), float64(agg.verified)), "blocks/call")
	put("vm.page_faults", ratio(float64(c.Faults), jobs), "count/job")
	put("vm.page_evicts", ratio(float64(c.Evicts), jobs), "count/job")
	put("vm.page_swapins", ratio(float64(c.Swapins), jobs), "count/job")
	put("vm.page_fault_read_us", agg.meanNs(spanFaultRead)/1e3, "us")
	put("vm.page_fault_write_us", agg.meanNs(spanFaultWrite)/1e3, "us")
	put("ckpt.checkpoint_ms", agg.meanNs(spanCheckpoint)/1e6, "ms")
	put("ckpt.restore_ms", agg.meanNs(spanRestore)/1e6, "ms")
	put("ckpt.blob_kb", ratio(float64(agg.blobBytes)/1024, float64(agg.n[spanCheckpoint])), "KiB")
	put("trace.overhead_pct", 100*(plain.jobsPerSec()/traced.jobsPerSec()-1), "%")
	put("model.table6_err_pp", t6, "pp")

	path := filepath.Join(".bench_build", "perfbench-trace-"+b.w.name+".csv")
	if err := writeSpans(path, tracers); err != nil {
		return err
	}
	fmt.Printf("spans: %s (%d traced jobs)\n", path, agg.jobs)
	return nil
}
