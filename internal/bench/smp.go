// smp.go measures the SMP scheduler: a homogeneous fleet of verified
// micro-workload processes driven across 1/2/4/8 workers, reporting
// scaling efficiency per workload. The table behind BENCH_smp.json.
package bench

import (
	"fmt"

	"asc/internal/kernel"
	"asc/internal/sched"
)

// SMPWorkers is the worker sweep measured for BENCH_smp.json.
var SMPWorkers = []int{1, 2, 4, 8}

// SMPPoint is one (workload, worker-count) measurement.
type SMPPoint struct {
	Workers int `json:"workers"`
	// MakespanCycles is the modeled fleet completion time: per-process
	// cycle counts assigned round-robin to lanes, busiest lane's total
	// (sched.Makespan). Per-process counts are deterministic, so this
	// figure is byte-stable run to run — unlike wall clock.
	MakespanCycles uint64 `json:"makespan_cycles"`
	// Speedup is serial makespan over this makespan.
	Speedup float64 `json:"speedup"`
	// EfficiencyPct is Speedup/Workers × 100.
	EfficiencyPct float64 `json:"efficiency_pct"`
	// VerifiedPerMCycle is fleet-wide verified calls per million
	// makespan cycles — the verified-throughput figure.
	VerifiedPerMCycle float64 `json:"verified_per_mcycle"`
}

// SMPRow is one workload's scaling sweep.
type SMPRow struct {
	Call          string     `json:"call"`
	CyclesPerProc uint64     `json:"cycles_per_proc"` // deterministic per-process cycle count
	CallsPerProc  uint64     `json:"calls_per_proc"`  // verified calls per process
	Points        []SMPPoint `json:"points"`
}

// SMPData is the full SMP scaling table.
type SMPData struct {
	Procs int      `json:"procs"`
	Iters int      `json:"iters"`
	Rows  []SMPRow `json:"rows"`
}

// SMP runs each Table-4 micro workload as a fleet of procs identical
// verified (uncached) processes, once per worker count in SMPWorkers,
// and reports modeled makespan, speedup, and verified throughput. All
// fleets really execute concurrently on the sched pool — that is what
// the -race gate exercises — but the reported cycles come from the
// deterministic per-process counts, which SMP cross-checks across
// worker counts: any divergence is an error, since per-process results
// must not depend on scheduling.
func SMP(key []byte, procs, iters int) (*SMPData, error) {
	if procs < 1 {
		procs = 8
	}
	if iters < 2 {
		iters = 200
	}
	out := &SMPData{Procs: procs, Iters: iters}
	for _, call := range []string{"getpid", "gettimeofday", "read(4096)", "write(4096)", "brk"} {
		name := fmt.Sprintf("smp-%s", call)
		_, auth, err := buildPair(name, microSource(call, iters), key)
		if err != nil {
			return nil, err
		}
		row := SMPRow{Call: call}
		var serial uint64
		for _, w := range SMPWorkers {
			k, err := newBenchKernel(key, kernel.Enforce)
			if err != nil {
				return nil, err
			}
			jobs := make([]sched.Job, procs)
			for i := range jobs {
				p, err := k.Spawn(auth, fmt.Sprintf("%s#%d", name, i))
				if err != nil {
					return nil, err
				}
				jobs[i] = sched.Job{Kern: k, Proc: p, MaxCycles: 4_000_000_000}
			}
			pool := sched.Pool{Workers: w}
			for i, r := range pool.Run(jobs) {
				if r.Err != nil {
					return nil, fmt.Errorf("bench: smp %s w=%d proc %d: %w", call, w, i, r.Err)
				}
				if jobs[i].Proc.Killed {
					return nil, fmt.Errorf("bench: smp %s w=%d proc %d killed: %s", call, w, i, jobs[i].Proc.KilledBy)
				}
			}
			cycles := make([]uint64, procs)
			var verified uint64
			for i, j := range jobs {
				cycles[i] = j.Proc.CPU.Cycles
				verified += j.Proc.VerifyCount
				// Determinism contract: per-process counts must not
				// depend on worker count or interleaving.
				if cycles[i] != cycles[0] {
					return nil, fmt.Errorf("bench: smp %s w=%d: proc %d cycles %d != proc 0 cycles %d",
						call, w, i, cycles[i], cycles[0])
				}
			}
			if row.CyclesPerProc == 0 {
				row.CyclesPerProc = cycles[0]
				row.CallsPerProc = jobs[0].Proc.VerifyCount
			} else if cycles[0] != row.CyclesPerProc {
				return nil, fmt.Errorf("bench: smp %s: cycles diverged across worker counts: %d != %d",
					call, cycles[0], row.CyclesPerProc)
			}
			mk := sched.Makespan(cycles, w)
			if serial == 0 {
				serial = sched.Makespan(cycles, 1)
			}
			speedup := float64(serial) / float64(mk)
			row.Points = append(row.Points, SMPPoint{
				Workers:           w,
				MakespanCycles:    mk,
				Speedup:           speedup,
				EfficiencyPct:     100 * speedup / float64(w),
				VerifiedPerMCycle: 1e6 * float64(verified) / float64(mk),
			})
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the scaling table.
func (t *SMPData) Render() string {
	header := []string{"Workload", "Cycles/proc", "Calls/proc"}
	for _, w := range SMPWorkers {
		header = append(header, fmt.Sprintf("w=%d speedup (eff %%)", w))
	}
	var rows [][]string
	for _, r := range t.Rows {
		row := []string{
			r.Call,
			fmt.Sprintf("%d", r.CyclesPerProc),
			fmt.Sprintf("%d", r.CallsPerProc),
		}
		for _, p := range r.Points {
			row = append(row, fmt.Sprintf("%.2fx (%.0f)", p.Speedup, p.EfficiencyPct))
		}
		rows = append(rows, row)
	}
	title := fmt.Sprintf("SMP scaling: %d verified processes per fleet, modeled makespan", t.Procs)
	return renderTable(title, header, rows)
}
