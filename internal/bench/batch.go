// batch.go measures the group-commit fast path: an 8-process getpid
// fleet swept across burst sizes and cache modes. Per-call costs come
// from differencing two loop lengths (startup cancels out) over
// deterministic cycle counts, so BENCH_batch.json is byte-stable. The
// driver enforces the amortization contract — cost per call must fall
// strictly as the burst grows — so a regression fails the bench run
// itself, not just a downstream guard.
package bench

import (
	"fmt"

	"asc/internal/kernel"
)

// BatchBursts is the group-commit burst-size sweep.
var BatchBursts = []int{1, 2, 4, 8, 16}

// batchModes maps row labels to kernel cache configurations. Order is
// fixed: the JSON artifact must be byte-stable.
var batchModes = []struct {
	Name string
	Mode kernel.CacheMode
}{
	{"off", kernel.CacheOff},
	{"per-process", kernel.CachePerProcess},
	{"shared", kernel.CacheShared},
}

// BatchPoint is one burst size's per-call cost under one cache mode.
type BatchPoint struct {
	Burst         int     `json:"burst"`
	CyclesPerCall float64 `json:"cycles_per_call"`
}

// BatchRow is one cache mode's burst sweep.
type BatchRow struct {
	Mode string `json:"cache_mode"`
	// Hits/Misses/Shares are the fleet-wide cache counters of the
	// longest run at the largest burst (identical across bursts:
	// batching changes the control-flow checker, not the cache).
	Hits   uint64       `json:"hits"`
	Misses uint64       `json:"misses"`
	Shares uint64       `json:"shares"`
	Points []BatchPoint `json:"points"`
}

// BatchData is the full burst × cache-mode sweep.
type BatchData struct {
	Procs int        `json:"procs"`
	Rows  []BatchRow `json:"rows"`
}

// batchLoopSrc is a pure getpid loop: no file I/O, so the fleet needs
// nothing from the filesystem and every trap exercises the fast path.
func batchLoopSrc(n int) string {
	return fmt.Sprintf(`        .text
        .global main
main:
        PUSH fp
        MOV fp, sp
        MOVI r12, %d
.loop:
        CALL getpid
        ADDI r12, r12, -1
        MOVI r9, 0
        BNE r12, r9, .loop
        POP fp
        MOVI r0, 0
        RET
`, n)
}

// runBatchFleet runs procs copies of the n-iteration loop serially on
// one kernel (serial order keeps who-misses/who-adopts deterministic in
// the shared mode) and returns the fleet cycle total plus the kernel's
// aggregate cache counters.
func runBatchFleet(key []byte, procs, n int, mode kernel.CacheMode, burst int) (uint64, kernel.CacheStats, error) {
	name := fmt.Sprintf("batch-%d", n)
	_, auth, err := buildPair(name, batchLoopSrc(n), key)
	if err != nil {
		return 0, kernel.CacheStats{}, err
	}
	k, err := newBenchKernel(key, kernel.Enforce,
		kernel.WithCacheMode(mode), kernel.WithBatchVerify(burst))
	if err != nil {
		return 0, kernel.CacheStats{}, err
	}
	var total uint64
	for i := 0; i < procs; i++ {
		p, err := runOnce(k, auth, name, "")
		if err != nil {
			return 0, kernel.CacheStats{}, err
		}
		total += p.CPU.Cycles
	}
	return total, k.CacheStats(), nil
}

// Batch runs the burst × cache-mode sweep and validates the
// amortization contract.
func Batch(key []byte) (*BatchData, error) {
	const procs = 8
	const n1, n2 = 100, 1100
	out := &BatchData{Procs: procs}
	for _, m := range batchModes {
		row := BatchRow{Mode: m.Name}
		for _, burst := range BatchBursts {
			c1, _, err := runBatchFleet(key, procs, n1, m.Mode, burst)
			if err != nil {
				return nil, err
			}
			c2, stats, err := runBatchFleet(key, procs, n2, m.Mode, burst)
			if err != nil {
				return nil, err
			}
			row.Points = append(row.Points, BatchPoint{
				Burst:         burst,
				CyclesPerCall: float64(c2-c1) / float64(procs*(n2-n1)),
			})
			row.Hits, row.Misses, row.Shares = stats.Hits, stats.Misses, stats.Shares
		}
		for i := 1; i < len(row.Points); i++ {
			prev, cur := row.Points[i-1], row.Points[i]
			if cur.CyclesPerCall >= prev.CyclesPerCall {
				return nil, fmt.Errorf("bench: batch %s: burst %d costs %.1f cycles/call, burst %d costs %.1f — amortization regressed",
					m.Name, cur.Burst, cur.CyclesPerCall, prev.Burst, prev.CyclesPerCall)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the sweep.
func (t *BatchData) Render() string {
	header := []string{"Cache mode"}
	for _, b := range BatchBursts {
		header = append(header, fmt.Sprintf("burst=%d", b))
	}
	header = append(header, "hits/misses/shares")
	var rows [][]string
	for _, r := range t.Rows {
		row := []string{r.Mode}
		for _, p := range r.Points {
			row = append(row, fmt.Sprintf("%.1f", p.CyclesPerCall))
		}
		row = append(row, fmt.Sprintf("%d/%d/%d", r.Hits, r.Misses, r.Shares))
		rows = append(rows, row)
	}
	title := fmt.Sprintf("Group-commit sweep: cycles/call, %d-process getpid fleet", t.Procs)
	return renderTable(title, header, rows)
}
