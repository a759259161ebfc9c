// ascbench regenerates the paper's evaluation tables.
//
// Usage: ascbench [-table 1|2|3|4|6|andrew|compare|smp|ckpt|net|batch|cluster|mem|all]
// [-scale N] [-json FILE] [-guard RATIO]
// [-cpuprofile FILE] [-memprofile FILE]
//
// With -json FILE, the Table 4 microbenchmark rows (plain, verified, and
// cache-enabled cycles per call) are additionally written to FILE as a
// machine-readable summary; with -table smp the same flag writes the SMP
// scaling sweep (BENCH_smp.json), with -table ckpt the crash-recovery
// cadence sweep (BENCH_ckpt.json), with -table net the network fleet
// sweep (BENCH_net.json), with -table batch the group-commit sweep
// (BENCH_batch.json), with -table cluster the multi-node failover
// sweep (BENCH_cluster.json), and with -table mem the paged-memory
// working-set sweep (BENCH_mem.json). All of these come from
// deterministic cycle counts, so the JSON is byte-stable.
//
// -guard RATIO fails the run (exit 1) if the Table 4 cached getpid cost
// exceeds RATIO times the plain cost — the fast-path perf regression
// gate. -cpuprofile/-memprofile write pprof profiles of the benchmark
// run itself, so fast-path work is profiled instead of guessed at.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"asc/internal/bench"
	"asc/internal/workload"
)

// benchJSON is the machine-readable kernel benchmark summary.
type benchJSON struct {
	LoopCost float64        `json:"loop_cost_cycles"`
	Rows     []benchJSONRow `json:"rows"`
}

// benchJSONRow is one system call's modeled cycles per call in each of
// the three kernel configurations.
type benchJSONRow struct {
	Call     string  `json:"call"`
	Plain    float64 `json:"plain_cycles"`
	Verified float64 `json:"verified_cycles"`
	Cached   float64 `json:"cached_cycles"`
}

func writeJSON(path string, t4 *bench.Table4Data) error {
	out := benchJSON{LoopCost: t4.LoopCost}
	for _, r := range t4.Rows {
		out.Rows = append(out.Rows, benchJSONRow{
			Call:     r.Call,
			Plain:    r.OrigCycles,
			Verified: r.AuthCycles,
			Cached:   r.CachedCycles,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// smpJSON is the machine-readable SMP scaling summary.
type smpJSON struct {
	Procs int          `json:"procs"`
	Iters int          `json:"iters"`
	Rows  []smpJSONRow `json:"rows"`
}

type smpJSONRow struct {
	Call          string         `json:"call"`
	CyclesPerProc uint64         `json:"cycles_per_proc"`
	CallsPerProc  uint64         `json:"calls_per_proc"`
	Points        []smpJSONPoint `json:"points"`
}

type smpJSONPoint struct {
	Workers           int     `json:"workers"`
	MakespanCycles    uint64  `json:"makespan_cycles"`
	Speedup           float64 `json:"speedup"`
	EfficiencyPct     float64 `json:"efficiency_pct"`
	VerifiedPerMCycle float64 `json:"verified_per_mcycle"`
}

func writeSMPJSON(path string, t *bench.SMPData) error {
	out := smpJSON{Procs: t.Procs, Iters: t.Iters}
	for _, r := range t.Rows {
		row := smpJSONRow{Call: r.Call, CyclesPerProc: r.CyclesPerProc, CallsPerProc: r.CallsPerProc}
		for _, p := range r.Points {
			row.Points = append(row.Points, smpJSONPoint{
				Workers:           p.Workers,
				MakespanCycles:    p.MakespanCycles,
				Speedup:           p.Speedup,
				EfficiencyPct:     p.EfficiencyPct,
				VerifiedPerMCycle: p.VerifiedPerMCycle,
			})
		}
		out.Rows = append(out.Rows, row)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ckptJSON is the machine-readable crash-recovery summary.
type ckptJSON struct {
	Iters        int             `json:"iters"`
	CleanCycles  uint64          `json:"clean_cycles"`
	BudgetCycles uint64          `json:"budget_cycles"`
	Points       []ckptJSONPoint `json:"points"`
}

type ckptJSONPoint struct {
	Divisor      int     `json:"divisor"`
	EveryCycles  uint64  `json:"every_cycles"`
	Checkpoints  int     `json:"checkpoints"`
	WarmRestarts int     `json:"warm_restarts"`
	ColdStarts   int     `json:"cold_starts"`
	Attempts     int     `json:"attempts"`
	ReplayCycles uint64  `json:"replay_cycles"`
	ReplayPct    float64 `json:"replay_pct"`
	Recovered    bool    `json:"recovered"`
}

func writeCkptJSON(path string, t *bench.CkptData) error {
	out := ckptJSON{Iters: t.Iters, CleanCycles: t.CleanCycles, BudgetCycles: t.BudgetCycles}
	for _, p := range t.Points {
		out.Points = append(out.Points, ckptJSONPoint{
			Divisor:      p.Divisor,
			EveryCycles:  p.EveryCycles,
			Checkpoints:  p.Checkpoints,
			WarmRestarts: p.WarmRestarts,
			ColdStarts:   p.ColdStarts,
			Attempts:     p.Attempts,
			ReplayCycles: p.ReplayCycles,
			ReplayPct:    p.ReplayPct,
			Recovered:    p.Recovered,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// netJSON is the machine-readable network sweep summary.
type netJSON struct {
	Iters int            `json:"iters"`
	Rows  []netJSONRow   `json:"rows"`
	Shard []shardJSONRow `json:"shard"`
}

type shardJSONRow struct {
	Replicas     int            `json:"replicas"`
	Clients      int            `json:"clients"`
	Iters        int            `json:"iters"`
	Requests     uint64         `json:"requests"`
	CyclesCached uint64         `json:"cycles_cached"`
	Verified     uint64         `json:"verified_calls"`
	Points       []netJSONPoint `json:"points"`
}

type netJSONRow struct {
	Clients           int            `json:"clients"`
	Requests          uint64         `json:"requests"`
	Bytes             uint64         `json:"bytes"`
	CyclesOff         uint64         `json:"cycles_off"`
	CyclesOn          uint64         `json:"cycles_enforced"`
	CyclesCached      uint64         `json:"cycles_cached"`
	OverheadPct       float64        `json:"overhead_pct"`
	CachedOverheadPct float64        `json:"cached_overhead_pct"`
	Verified          uint64         `json:"verified_calls"`
	Points            []netJSONPoint `json:"points"`
}

type netJSONPoint struct {
	Workers           int     `json:"workers"`
	MakespanCycles    uint64  `json:"makespan_cycles"`
	Speedup           float64 `json:"speedup"`
	EfficiencyPct     float64 `json:"efficiency_pct"`
	VerifiedPerMCycle float64 `json:"verified_per_mcycle"`
}

func writeNetJSON(path string, t *bench.NetData) error {
	out := netJSON{Iters: t.Iters}
	for _, r := range t.Rows {
		row := netJSONRow{
			Clients:           r.Clients,
			Requests:          r.Requests,
			Bytes:             r.Bytes,
			CyclesOff:         r.CyclesOff,
			CyclesOn:          r.CyclesOn,
			CyclesCached:      r.CyclesCached,
			OverheadPct:       r.OverheadPct,
			CachedOverheadPct: r.CachedOverheadPct,
			Verified:          r.Verified,
		}
		for _, p := range r.Points {
			row.Points = append(row.Points, netJSONPoint{
				Workers:           p.Workers,
				MakespanCycles:    p.MakespanCycles,
				Speedup:           p.Speedup,
				EfficiencyPct:     p.EfficiencyPct,
				VerifiedPerMCycle: p.VerifiedPerMCycle,
			})
		}
		out.Rows = append(out.Rows, row)
	}
	for _, r := range t.Shard {
		row := shardJSONRow{
			Replicas:     r.Replicas,
			Clients:      r.Clients,
			Iters:        r.Iters,
			Requests:     r.Requests,
			CyclesCached: r.CyclesCached,
			Verified:     r.Verified,
		}
		for _, p := range r.Points {
			row.Points = append(row.Points, netJSONPoint{
				Workers:           p.Workers,
				MakespanCycles:    p.MakespanCycles,
				Speedup:           p.Speedup,
				EfficiencyPct:     p.EfficiencyPct,
				VerifiedPerMCycle: p.VerifiedPerMCycle,
			})
		}
		out.Shard = append(out.Shard, row)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// batchJSON is the machine-readable group-commit sweep summary.
type batchJSON struct {
	Procs int            `json:"procs"`
	Rows  []batchJSONRow `json:"rows"`
}

type batchJSONRow struct {
	Mode   string           `json:"cache_mode"`
	Hits   uint64           `json:"hits"`
	Misses uint64           `json:"misses"`
	Shares uint64           `json:"shares"`
	Points []batchJSONPoint `json:"points"`
}

type batchJSONPoint struct {
	Burst         int     `json:"burst"`
	CyclesPerCall float64 `json:"cycles_per_call"`
}

func writeBatchJSON(path string, t *bench.BatchData) error {
	out := batchJSON{Procs: t.Procs}
	for _, r := range t.Rows {
		row := batchJSONRow{Mode: r.Mode, Hits: r.Hits, Misses: r.Misses, Shares: r.Shares}
		for _, p := range r.Points {
			row.Points = append(row.Points, batchJSONPoint{Burst: p.Burst, CyclesPerCall: p.CyclesPerCall})
		}
		out.Rows = append(out.Rows, row)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// clusterJSON is the machine-readable failover sweep summary.
type clusterJSON struct {
	Iters       int                 `json:"iters"`
	CleanCycles uint64              `json:"clean_cycles"`
	SliceCycles uint64              `json:"slice_cycles"`
	CrashTick   int                 `json:"crash_tick"`
	Points      []clusterJSONPoint  `json:"points"`
	Takeover    []takeoverJSONPoint `json:"takeover,omitempty"`
}

type takeoverJSONPoint struct {
	HeartbeatEvery int    `json:"heartbeat_every"`
	Procs          int    `json:"procs"`
	CrashTick      int    `json:"crash_tick"`
	TakeoverTick   int    `json:"takeover_tick"`
	DetectTicks    int    `json:"detect_ticks"`
	Ticks          int    `json:"ticks"`
	Reattached     int    `json:"reattached"`
	Restored       int    `json:"restored"`
	WarmRestarts   int    `json:"warm_restarts"`
	ColdStarts     int    `json:"cold_starts"`
	WALRecords     int    `json:"wal_records"`
	Term           uint32 `json:"term"`
}

type clusterJSONPoint struct {
	Nodes          int     `json:"nodes"`
	HeartbeatEvery int     `json:"heartbeat_every"`
	Procs          int     `json:"procs"`
	Ticks          int     `json:"ticks"`
	DetectTicks    int     `json:"detect_ticks"`
	FailoverTicks  int     `json:"failover_ticks"`
	Failovers      int     `json:"failovers"`
	WarmRestarts   int     `json:"warm_restarts"`
	ColdStarts     int     `json:"cold_starts"`
	Checkpoints    int     `json:"checkpoints"`
	ReplayCycles   uint64  `json:"replay_cycles"`
	RestoredCycles uint64  `json:"restored_cycles"`
	RecoveredPct   float64 `json:"recovered_pct"`
	Beats          int     `json:"beats"`
	MissedBeats    int     `json:"missed_beats"`
}

func writeClusterJSON(path string, t *bench.ClusterData) error {
	out := clusterJSON{Iters: t.Iters, CleanCycles: t.CleanCycles, SliceCycles: t.SliceCycles, CrashTick: t.CrashTick}
	for _, p := range t.Points {
		out.Points = append(out.Points, clusterJSONPoint{
			Nodes:          p.Nodes,
			HeartbeatEvery: p.HeartbeatEvery,
			Procs:          p.Procs,
			Ticks:          p.Ticks,
			DetectTicks:    p.DetectTicks,
			FailoverTicks:  p.FailoverTicks,
			Failovers:      p.Failovers,
			WarmRestarts:   p.WarmRestarts,
			ColdStarts:     p.ColdStarts,
			Checkpoints:    p.Checkpoints,
			ReplayCycles:   p.ReplayCycles,
			RestoredCycles: p.RestoredCycles,
			RecoveredPct:   p.RecoveredPct,
			Beats:          p.Beats,
			MissedBeats:    p.MissedBeats,
		})
	}
	for _, p := range t.Takeover {
		out.Takeover = append(out.Takeover, takeoverJSONPoint{
			HeartbeatEvery: p.HeartbeatEvery,
			Procs:          p.Procs,
			CrashTick:      p.CrashTick,
			TakeoverTick:   p.TakeoverTick,
			DetectTicks:    p.DetectTicks,
			Ticks:          p.Ticks,
			Reattached:     p.Reattached,
			Restored:       p.Restored,
			WarmRestarts:   p.WarmRestarts,
			ColdStarts:     p.ColdStarts,
			WALRecords:     p.WALRecords,
			Term:           p.Term,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// memJSON is the machine-readable paged-memory sweep summary.
type memJSON struct {
	Sweeps int            `json:"sweeps"`
	Points []memJSONPoint `json:"points"`
}

type memJSONPoint struct {
	BudgetPages       int     `json:"budget_pages"`
	WSPages           int     `json:"ws_pages"`
	Faults            uint64  `json:"faults"`
	Evicts            uint64  `json:"evicts"`
	Swapins           uint64  `json:"swapins"`
	CyclesOff         uint64  `json:"cycles_off"`
	CyclesOn          uint64  `json:"cycles_enforced"`
	CyclesCached      uint64  `json:"cycles_cached"`
	OverheadPct       float64 `json:"overhead_pct"`
	CachedOverheadPct float64 `json:"cached_overhead_pct"`
}

func writeMemJSON(path string, t *bench.MemData) error {
	out := memJSON{Sweeps: t.Sweeps}
	for _, p := range t.Points {
		out.Points = append(out.Points, memJSONPoint{
			BudgetPages:       p.BudgetPages,
			WSPages:           p.WSPages,
			Faults:            p.Faults,
			Evicts:            p.Evicts,
			Swapins:           p.Swapins,
			CyclesOff:         p.CyclesOff,
			CyclesOn:          p.CyclesOn,
			CyclesCached:      p.CyclesCached,
			OverheadPct:       p.OverheadPct,
			CachedOverheadPct: p.CachedOverheadPct,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkGuard enforces the fast-path regression gate on the Table 4 rows.
func checkGuard(t4 *bench.Table4Data, ratio float64) error {
	for _, r := range t4.Rows {
		if r.Call != "getpid" {
			continue
		}
		if got := r.CachedCycles / r.OrigCycles; got > ratio {
			return fmt.Errorf("cached getpid %.0f cycles is %.2fx plain %.0f, guard is %.2fx",
				r.CachedCycles, got, r.OrigCycles, ratio)
		}
		return nil
	}
	return fmt.Errorf("guard: no getpid row in Table 4")
}

// smpProcs is how many verified processes the SMP sweep runs per
// Table-4 workload.
const smpProcs = 8

func main() {
	table := flag.String("table", "all", "which artifact to regenerate: 1, 2, 3, 4, 6, andrew, compare, smp, ckpt, net, batch, cluster, mem, all")
	scale := flag.Int("scale", 1, "divide macro-benchmark iteration counts by N (faster, less precise)")
	jsonPath := flag.String("json", "", "write the Table 4 (or -table smp) benchmark summary to FILE as JSON")
	guard := flag.Float64("guard", 0, "fail if Table 4 cached getpid exceeds this ratio of plain (0 = off)")
	netguard := flag.Float64("netguard", 0, "fail if the sharded fleet's 4-worker efficiency falls below this percentage (0 = off)")
	takeoverguard := flag.Bool("takeoverguard", false, "fail if a director crash with a warm standby cold-starts any process")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to FILE")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the benchmark run to FILE")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ascbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ascbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ascbench: memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ascbench: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *netguard > 0 {
		speedup, eff, err := bench.ShardGuard(bench.DefaultKey)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ascbench: netguard: %v\n", err)
			os.Exit(1)
		}
		if eff < *netguard {
			fmt.Fprintf(os.Stderr, "ascbench: netguard: sharded fleet 4-worker efficiency %.1f%% (speedup %.2fx) below floor %.1f%%\n",
				eff, speedup, *netguard)
			os.Exit(1)
		}
		fmt.Printf("netguard: sharded fleet 4-worker speedup %.2fx, efficiency %.1f%% (floor %.1f%%)\n", speedup, eff, *netguard)
	}
	if *takeoverguard {
		reattached, restored, cold, err := bench.TakeoverGuard(bench.DefaultKey)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ascbench: takeoverguard: %v\n", err)
			os.Exit(1)
		}
		if cold != 0 {
			fmt.Fprintf(os.Stderr, "ascbench: takeoverguard: %d cold starts across a director takeover (want 0)\n", cold)
			os.Exit(1)
		}
		fmt.Printf("takeoverguard: director takeover recovered %d live + %d warm, 0 cold starts\n", reattached, restored)
	}

	run := func(name string, f func() (interface{ Render() string }, error)) {
		if *table != "all" && *table != name {
			return
		}
		data, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ascbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(data.Render())
	}

	run("1", func() (interface{ Render() string }, error) { return bench.Table1() })
	run("2", func() (interface{ Render() string }, error) { return bench.Table2() })
	run("3", func() (interface{ Render() string }, error) { return bench.Table3() })
	run("4", func() (interface{ Render() string }, error) {
		t4, err := bench.Table4(bench.DefaultKey)
		if err != nil {
			return nil, err
		}
		if *guard > 0 {
			if err := checkGuard(t4, *guard); err != nil {
				return nil, err
			}
		}
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, t4); err != nil {
				return nil, fmt.Errorf("write %s: %w", *jsonPath, err)
			}
		}
		return t4, nil
	})
	run("6", func() (interface{ Render() string }, error) { return bench.Table6(bench.DefaultKey, *scale) })
	run("andrew", func() (interface{ Render() string }, error) {
		return bench.Andrew(bench.DefaultKey, workload.AndrewConfig{})
	})
	run("compare", func() (interface{ Render() string }, error) {
		return bench.EnforcementComparison(bench.DefaultKey)
	})
	run("smp", func() (interface{ Render() string }, error) {
		data, err := bench.SMP(bench.DefaultKey, smpProcs, 200)
		if err != nil {
			return nil, err
		}
		if *jsonPath != "" {
			if err := writeSMPJSON(*jsonPath, data); err != nil {
				return nil, fmt.Errorf("write %s: %w", *jsonPath, err)
			}
		}
		return data, nil
	})
	run("ckpt", func() (interface{ Render() string }, error) {
		data, err := bench.Ckpt(bench.DefaultKey, 400)
		if err != nil {
			return nil, err
		}
		if *jsonPath != "" {
			if err := writeCkptJSON(*jsonPath, data); err != nil {
				return nil, fmt.Errorf("write %s: %w", *jsonPath, err)
			}
		}
		return data, nil
	})
	run("net", func() (interface{ Render() string }, error) {
		data, err := bench.Net(bench.DefaultKey, 4)
		if err != nil {
			return nil, err
		}
		if *jsonPath != "" {
			if err := writeNetJSON(*jsonPath, data); err != nil {
				return nil, fmt.Errorf("write %s: %w", *jsonPath, err)
			}
		}
		return data, nil
	})
	run("cluster", func() (interface{ Render() string }, error) {
		data, err := bench.Cluster(bench.DefaultKey, 400)
		if err != nil {
			return nil, err
		}
		if *jsonPath != "" {
			if err := writeClusterJSON(*jsonPath, data); err != nil {
				return nil, fmt.Errorf("write %s: %w", *jsonPath, err)
			}
		}
		return data, nil
	})
	run("batch", func() (interface{ Render() string }, error) {
		data, err := bench.Batch(bench.DefaultKey)
		if err != nil {
			return nil, err
		}
		if *jsonPath != "" {
			if err := writeBatchJSON(*jsonPath, data); err != nil {
				return nil, fmt.Errorf("write %s: %w", *jsonPath, err)
			}
		}
		return data, nil
	})
	run("mem", func() (interface{ Render() string }, error) {
		data, err := bench.Mem(bench.DefaultKey)
		if err != nil {
			return nil, err
		}
		if *jsonPath != "" {
			if err := writeMemJSON(*jsonPath, data); err != nil {
				return nil, fmt.Errorf("write %s: %w", *jsonPath, err)
			}
		}
		return data, nil
	})
}
