// ckpt.go measures crash recovery under sealed checkpoints: a
// deterministic loop workload is forced to overrun a cycle budget
// (modeling a runaway), and the supervisor warm-restarts it from the
// newest sealed checkpoint. Sweeping the checkpoint cadence shows the
// trade the operator tunes: frequent checkpoints cost seal work but
// bound the replay after a failure, sparse ones do the reverse. The
// table behind BENCH_ckpt.json.
package bench

import (
	"fmt"

	"asc/internal/core"
	"asc/internal/libc"
	"asc/internal/workload"
)

// CkptDivisors is the cadence sweep: one recovery run per divisor n,
// sealing a checkpoint every budget/n cycles.
var CkptDivisors = []int{2, 4, 8, 16}

// ckptLoopSource is the sweep's victim: a getpid loop with the
// iteration count fixed in the source, so the clean cycle count — and
// with it every figure in the table — is deterministic.
const ckptLoopSource = `
        .text
        .global main
main:
        MOVI r12, %d
.loop:
        CALL getpid
        ADDI r12, r12, -1
        MOVI r9, 0
        BNE r12, r9, .loop
        MOVI r1, msg
        CALL puts
        MOVI r0, 0
        RET
        .rodata
msg:    .asciz "done"
`

// CkptPoint is one cadence's recovery measurement.
type CkptPoint struct {
	// Divisor n selects the cadence: a checkpoint every budget/n cycles.
	Divisor     int    `json:"divisor"`
	EveryCycles uint64 `json:"every_cycles"`
	// Checkpoints sealed across the whole supervised run.
	Checkpoints int `json:"checkpoints"`
	// WarmRestarts resumed from a verified checkpoint; ColdStarts fell
	// through to a fresh spawn (always 0 here — the chain is untampered).
	WarmRestarts int `json:"warm_restarts"`
	ColdStarts   int `json:"cold_starts"`
	Attempts     int `json:"attempts"`
	// ReplayCycles re-executed work between the restore point and the
	// failure; ReplayPct expresses it against the clean run.
	ReplayCycles uint64  `json:"replay_cycles"`
	ReplayPct    float64 `json:"replay_pct"`
	Recovered    bool    `json:"recovered"`
}

// CkptData is the full crash-recovery sweep.
type CkptData struct {
	Iters int `json:"iters"`
	// CleanCycles is the uninterrupted run's cost; BudgetCycles is the
	// per-attempt cap (4/5 of clean, so every first attempt overruns).
	CleanCycles  uint64      `json:"clean_cycles"`
	BudgetCycles uint64      `json:"budget_cycles"`
	Points       []CkptPoint `json:"points"`
}

// Ckpt runs the crash-recovery sweep: for each cadence divisor the loop
// workload runs under core.Supervise with a budget below its clean cost,
// overruns, and must recover warm from sealed checkpoints. Any failure
// to recover, cold start, or checkpoint rejection is an error — the
// chain is untampered, so integrity machinery must be invisible here.
func Ckpt(key []byte, iters int) (*CkptData, error) {
	if iters < 2 {
		iters = 400
	}
	sys, err := core.NewSystem(core.Config{Key: key})
	if err != nil {
		return nil, err
	}
	raw, err := workload.BuildSource("ckpt-loop", fmt.Sprintf(ckptLoopSource, iters), libc.Linux)
	if err != nil {
		return nil, err
	}
	exe, _, _, err := sys.Install(raw, "ckpt-loop")
	if err != nil {
		return nil, err
	}
	ref, err := sys.Exec(exe, "ckpt-loop", "")
	if err != nil {
		return nil, err
	}
	if ref.Killed || ref.ExitCode != 0 {
		return nil, fmt.Errorf("bench: ckpt clean run failed: %+v", ref)
	}
	out := &CkptData{
		Iters:        iters,
		CleanCycles:  ref.Cycles,
		BudgetCycles: ref.Cycles * 4 / 5,
	}
	for _, div := range CkptDivisors {
		every := out.BudgetCycles / uint64(div)
		stats, err := sys.Supervise(exe, "ckpt-loop", "", core.SuperviseConfig{
			MaxRestarts:     8,
			BackoffBase:     100,
			MaxCycles:       out.BudgetCycles,
			CheckpointEvery: every,
		})
		if err != nil {
			return nil, err
		}
		recovered := !stats.GaveUp && stats.Final != nil && !stats.Final.Killed && stats.Final.ExitCode == 0
		if !recovered {
			return nil, fmt.Errorf("bench: ckpt budget/%d did not recover: %+v", div, stats)
		}
		if len(stats.CkptRejected) != 0 || stats.ColdStarts != 0 {
			return nil, fmt.Errorf("bench: ckpt budget/%d rejected an untampered chain: rejected=%v cold=%d",
				div, stats.CkptRejected, stats.ColdStarts)
		}
		out.Points = append(out.Points, CkptPoint{
			Divisor:      div,
			EveryCycles:  every,
			Checkpoints:  stats.Checkpoints,
			WarmRestarts: stats.WarmRestarts,
			ColdStarts:   stats.ColdStarts,
			Attempts:     stats.Attempts,
			ReplayCycles: stats.ReplayCycles,
			ReplayPct:    100 * float64(stats.ReplayCycles) / float64(ref.Cycles),
			Recovered:    recovered,
		})
	}
	return out, nil
}

// Render prints the crash-recovery table.
func (t *CkptData) Render() string {
	header := []string{"Cadence", "Every (cycles)", "Checkpoints", "Warm restarts", "Attempts", "Replayed cycles", "Replay %"}
	var rows [][]string
	for _, p := range t.Points {
		rows = append(rows, []string{
			fmt.Sprintf("budget/%d", p.Divisor),
			fmt.Sprintf("%d", p.EveryCycles),
			fmt.Sprintf("%d", p.Checkpoints),
			fmt.Sprintf("%d", p.WarmRestarts),
			fmt.Sprintf("%d", p.Attempts),
			fmt.Sprintf("%d", p.ReplayCycles),
			fmt.Sprintf("%.1f", p.ReplayPct),
		})
	}
	title := fmt.Sprintf("Crash recovery: clean run %d cycles, budget %d (forced runaway), warm restart from sealed checkpoints",
		t.CleanCycles, t.BudgetCycles)
	return renderTable(title, header, rows)
}
