// mem.go measures the paged virtual memory subsystem: a working-set
// sweep over the demand-paged mmap arena, crossed with the resident-page
// budget, in three kernel configurations — authentication off (plain
// swap frames), enforced (every evicted frame sealed with a per-page
// CMAC and re-verified at fault-in), and enforced with the verify cache
// and group commit. When the working set fits the budget the pager is
// idle and all three arms converge; when it exceeds the budget the
// sweep thrashes through the authenticated swap device and the sealing
// cost surfaces. The table behind BENCH_mem.json.
package bench

import (
	"fmt"

	"asc/internal/kernel"
)

// MemBudgets is the resident-page budget sweep.
var MemBudgets = []int{16, 32, 64}

// MemWorkingSets is the working-set sweep, in pages. The largest cell
// runs a working set 8x the smallest budget, so the sweep always
// includes deep-thrash cells (the interesting regime: every access
// beyond the budget is a verified swap-in).
var MemWorkingSets = []int{8, 32, 128}

// MemSweeps is how many times the workload walks its working set.
const MemSweeps = 4

// memSweepSource is the sweep workload: mmap a working set of anonymous
// pages read-write, walk it MemSweeps times (one store + one load per
// page), and unmap. Iteration counts are fixed in the source, so every
// cycle count in the table is deterministic.
const memSweepSource = `
        .text
        .global main
main:
        MOVI r1, 0
        MOVI r2, %d             ; working set, bytes
        MOVI r3, 3              ; PROT_READ|PROT_WRITE
        MOVI r4, 0x22           ; MAP_PRIVATE|MAP_ANONYMOUS
        MOVI r5, 0
        CALL mmap
        MOV r8, r0
        MOVI r9, 0
        BLT r8, r9, .done
        MOVI r12, %d            ; sweeps
.sweep:
        MOV r10, r8             ; cursor
        MOVI r11, %d            ; pages per sweep
.page:
        STORE [r10+0], r12
        LOAD r9, [r10+8]
        ADDI r10, r10, 4096
        ADDI r11, r11, -1
        MOVI r9, 0
        BNE r11, r9, .page
        ADDI r12, r12, -1
        MOVI r9, 0
        BNE r12, r9, .sweep
        MOV r1, r8
        MOVI r2, %d
        CALL munmap
.done:
        MOVI r0, 0
        RET
`

// MemPoint is one (budget, working set) cell of the sweep.
type MemPoint struct {
	// BudgetPages is the resident-page budget; WSPages the working set.
	BudgetPages int `json:"budget_pages"`
	WSPages     int `json:"ws_pages"`
	// Paging counters from the enforced arm (identical across arms: the
	// access pattern, not the MAC work, drives the pager).
	Faults  uint64 `json:"faults"`
	Evicts  uint64 `json:"evicts"`
	Swapins uint64 `json:"swapins"`
	// CyclesOff/On/Cached are the run costs with authentication off,
	// enforced, and enforced with the verify cache + group commit.
	CyclesOff    uint64 `json:"cycles_off"`
	CyclesOn     uint64 `json:"cycles_enforced"`
	CyclesCached uint64 `json:"cycles_cached"`
	// OverheadPct and CachedOverheadPct express On and Cached against Off.
	OverheadPct       float64 `json:"overhead_pct"`
	CachedOverheadPct float64 `json:"cached_overhead_pct"`
}

// MemData is the full working-set sweep.
type MemData struct {
	Sweeps int        `json:"sweeps"`
	Points []MemPoint `json:"points"`
}

// Mem runs the paged-memory sweep. Every arm runs on a paged kernel —
// the axis under study is the authentication of the swap device, not
// paging itself — and the off arm's nil MAC key makes its swap frames
// plain (zero tag, no AES), exactly the unauthenticated baseline.
func Mem(key []byte) (*MemData, error) {
	out := &MemData{Sweeps: MemSweeps}
	for _, ws := range MemWorkingSets {
		src := fmt.Sprintf(memSweepSource, ws*4096, MemSweeps, ws, ws*4096)
		name := fmt.Sprintf("mem-%dp", ws)
		orig, auth, err := buildPair(name, src, key)
		if err != nil {
			return nil, err
		}
		for _, budget := range MemBudgets {
			pt := MemPoint{BudgetPages: budget, WSPages: ws}
			paged := kernel.WithPagedMemory(budget)

			kOff, err := newBenchKernel(key, kernel.Permissive, paged)
			if err != nil {
				return nil, err
			}
			pOff, err := runOnce(kOff, orig, name, "")
			if err != nil {
				return nil, err
			}
			pt.CyclesOff = pOff.CPU.Cycles

			kOn, err := newBenchKernel(key, kernel.Enforce, paged)
			if err != nil {
				return nil, err
			}
			pOn, err := runOnce(kOn, auth, name, "")
			if err != nil {
				return nil, err
			}
			pt.CyclesOn = pOn.CPU.Cycles
			pt.Faults, pt.Evicts, pt.Swapins = pOn.PageStats()

			kCached, err := newBenchKernel(key, kernel.Enforce, paged,
				kernel.WithVerifyCache(), kernel.WithBatchVerify(BatchDepth))
			if err != nil {
				return nil, err
			}
			pCached, err := runOnce(kCached, auth, name, "")
			if err != nil {
				return nil, err
			}
			pt.CyclesCached = pCached.CPU.Cycles

			// Sanity: the pager's decisions may not depend on the MAC
			// configuration — identical fault/evict behavior everywhere.
			of, oe, oi := pOff.PageStats()
			if of != pt.Faults || oe != pt.Evicts || oi != pt.Swapins {
				return nil, fmt.Errorf("bench: mem ws=%d budget=%d: paging diverged across arms: off %d/%d/%d, on %d/%d/%d",
					ws, budget, of, oe, oi, pt.Faults, pt.Evicts, pt.Swapins)
			}
			if ws <= budget && pt.Evicts != 0 {
				return nil, fmt.Errorf("bench: mem ws=%d budget=%d: %d evictions with the working set resident",
					ws, budget, pt.Evicts)
			}
			if ws > budget && pt.Evicts == 0 {
				return nil, fmt.Errorf("bench: mem ws=%d budget=%d: no evictions with the working set over budget",
					ws, budget)
			}

			pt.OverheadPct = pct(pt.CyclesOff, pt.CyclesOn)
			pt.CachedOverheadPct = pct(pt.CyclesOff, pt.CyclesCached)
			out.Points = append(out.Points, pt)
		}
	}
	return out, nil
}

// Render prints the working-set sweep table.
func (t *MemData) Render() string {
	header := []string{"WS (pages)", "Budget", "Faults", "Evicts", "Swap-ins",
		"Off (cycles)", "Enforced", "Cached", "Overhead %", "Cached %"}
	var rows [][]string
	for _, p := range t.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.WSPages),
			fmt.Sprintf("%d", p.BudgetPages),
			fmt.Sprintf("%d", p.Faults),
			fmt.Sprintf("%d", p.Evicts),
			fmt.Sprintf("%d", p.Swapins),
			fmt.Sprintf("%d", p.CyclesOff),
			fmt.Sprintf("%d", p.CyclesOn),
			fmt.Sprintf("%d", p.CyclesCached),
			fmt.Sprintf("%.1f", p.OverheadPct),
			fmt.Sprintf("%.1f", p.CachedOverheadPct),
		})
	}
	title := fmt.Sprintf("Verified paging: %d-sweep working-set walk vs resident budget (authenticated swap device)", t.Sweeps)
	return renderTable(title, header, rows)
}
