// supervise.go implements the supervised-restart runner: a process
// killed by the monitor (or denied into a runaway loop) is restarted
// with capped exponential backoff, the way an init system restarts a
// crashed service. Backoff is virtual — measured in machine cycles, not
// wall-clock time — so supervised runs stay deterministic.
//
// With a checkpoint cadence configured, the supervisor also takes
// sealed checkpoints of the running process and restarts warm: each
// restart walks the checkpoint chain newest-first, restoring the first
// blob whose seal, epoch, and program binding all verify. Corrupted,
// stale, or swapped checkpoints are rejected (and counted by reason),
// never trusted — the chain falls through to older checkpoints and
// ultimately to a cold start.
package core

import (
	"errors"
	"fmt"

	"asc/internal/binfmt"
	"asc/internal/ckpt"
	"asc/internal/kernel"
	"asc/internal/seal"
	"asc/internal/vm"
)

// NoRestarts disables restarting entirely: the process runs once and
// its failure, if any, is final. It exists because MaxRestarts' zero
// value selects the default policy, so 0 cannot mean "none".
const NoRestarts = -1

// SuperviseConfig parameterizes the restart policy.
type SuperviseConfig struct {
	// MaxRestarts bounds how many times the process is restarted after
	// its first attempt. The zero value selects the default of 3; any
	// negative value (canonically NoRestarts) disables restarts.
	MaxRestarts int
	// BackoffBase is the virtual backoff (cycles) before the first
	// restart; each further restart doubles it (default 1000).
	BackoffBase uint64
	// BackoffCap caps the doubling (default 16 × BackoffBase). It need
	// not be a power-of-two multiple of BackoffBase: the doubled value
	// is clamped to the cap exactly.
	BackoffCap uint64
	// MaxCycles is the per-attempt execution budget, counted from the
	// attempt's starting point — a warm restart gets the full budget on
	// top of the restored cycle count (default 4e9). A budget overrun
	// counts as a restartable failure ("runaway"), which Deny-mode
	// processes can produce when their control-flow chain is
	// unrecoverable.
	MaxCycles uint64
	// CheckpointEvery, when non-zero, takes a sealed checkpoint each
	// time the attempt advances that many virtual cycles.
	CheckpointEvery uint64
	// Checkpoints is the store restarts fall back through. Leaving it
	// nil with CheckpointEvery set allocates a private store; passing
	// one in lets the caller persist blobs or (in fault campaigns)
	// tamper with them in flight.
	Checkpoints *ckpt.Store
}

// RestartEvent records one supervised restart.
type RestartEvent struct {
	Attempt int    // 1-based attempt that failed
	Cause   string // kill reason, or "runaway"
	Backoff uint64 // virtual cycles waited before the next attempt
}

// SuperviseStats summarizes a supervised run.
type SuperviseStats struct {
	Attempts     int
	Restarts     int
	GaveUp       bool
	TotalBackoff uint64
	Causes       map[string]int
	Events       []RestartEvent
	Final        *Result // the last attempt's result
	FinalCause   string  // cause of the last failed attempt ("" on a clean exit)

	// Checkpoint/recovery accounting (zero unless a cadence or store
	// was configured).
	Checkpoints      int            // sealed checkpoints taken
	CheckpointErrors int            // checkpoint attempts that failed (run continues)
	WarmRestarts     int            // restarts resumed from a verified checkpoint
	ColdStarts       int            // restarts that fell through the whole chain
	CkptRejected     map[string]int // restore rejections by seal.Reason
	ReplayCycles     uint64         // cycles re-executed after warm restarts
}

// Supervise runs a binary under the restart policy. It returns an error
// only for platform failures; monitor kills and runaways are absorbed
// into the stats.
func (s *System) Supervise(exe *binfmt.File, name, stdin string, cfg SuperviseConfig) (*SuperviseStats, error) {
	if cfg.MaxRestarts < 0 {
		cfg.MaxRestarts = 0
	} else if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 1000
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = 16 * cfg.BackoffBase
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 4_000_000_000
	}
	store := cfg.Checkpoints
	if store == nil && cfg.CheckpointEvery > 0 {
		store = ckpt.NewStore()
	}

	stats := &SuperviseStats{Causes: map[string]int{}}
	backoff := cfg.BackoffBase
	var lastFailCycles uint64
	for {
		stats.Attempts++
		res, cause, err := s.attempt(exe, name, stdin, cfg, store, stats, lastFailCycles)
		if err != nil {
			return stats, err
		}
		stats.Final = res
		if cause == "" {
			// Clean (or at least voluntary) exit: supervision ends.
			if len(stats.Causes) == 0 {
				stats.Causes = nil
			}
			return stats, nil
		}
		lastFailCycles = res.Cycles
		stats.Causes[cause]++
		stats.FinalCause = cause
		if stats.Restarts >= cfg.MaxRestarts {
			stats.GaveUp = true
			return stats, nil
		}
		stats.Events = append(stats.Events, RestartEvent{
			Attempt: stats.Attempts, Cause: cause, Backoff: backoff,
		})
		stats.TotalBackoff += backoff
		stats.Restarts++
		if backoff < cfg.BackoffCap {
			backoff *= 2
			if backoff > cfg.BackoffCap {
				backoff = cfg.BackoffCap
			}
		}
	}
}

// attempt starts one supervised attempt — warm from the newest
// restorable checkpoint when this is a restart and a store exists, cold
// otherwise — and drives it to completion or failure.
func (s *System) attempt(exe *binfmt.File, name, stdin string, cfg SuperviseConfig, store *ckpt.Store, stats *SuperviseStats, lastFailCycles uint64) (*Result, string, error) {
	var p *kernel.Process
	if stats.Attempts > 1 && store != nil {
		for _, ent := range store.Chain() {
			r, err := s.Kernel.Restore(exe, name, ent.Blob, ent.Epoch)
			if err != nil {
				if stats.CkptRejected == nil {
					stats.CkptRejected = map[string]int{}
				}
				stats.CkptRejected[seal.Reason(err)]++
				continue
			}
			p = r // stdin travels inside the checkpoint
			stats.WarmRestarts++
			if lastFailCycles > r.CPU.Cycles {
				stats.ReplayCycles += lastFailCycles - r.CPU.Cycles
			}
			break
		}
	}
	if p == nil {
		var err error
		p, err = s.Kernel.Spawn(exe, name)
		if err != nil {
			return nil, "", err
		}
		p.Stdin = []byte(stdin)
		if stats.Attempts > 1 {
			stats.ColdStarts++
		}
	}
	return s.drive(p, name, cfg, store, stats)
}

// drive runs an attempt in slices, sealing a checkpoint at each cadence
// boundary. The returned cause is "" on a voluntary exit, the kill
// reason for a monitor kill, "runaway" for budget exhaustion, or
// "crash" for a CPU fault (all restartable failures, like an init
// system restarting a segfaulting service); only platform failures
// surface as errors.
func (s *System) drive(p *kernel.Process, name string, cfg SuperviseConfig, store *ckpt.Store, stats *SuperviseStats) (*Result, string, error) {
	start := p.CPU.Cycles
	deadline := start + cfg.MaxCycles
	var next uint64
	if cfg.CheckpointEvery > 0 && store != nil {
		next = start + cfg.CheckpointEvery
	}
	for {
		limit := deadline
		if next > 0 && next < limit {
			limit = next
		}
		runErr := s.Kernel.Run(p, limit)
		var fault *vm.Fault
		switch {
		case runErr == nil:
			var cause string
			if p.Killed {
				cause = string(p.KilledBy)
			}
			return superviseResult(p), cause, nil
		case errors.Is(runErr, vm.ErrCycleLimit):
			if p.CPU.Cycles >= deadline {
				return superviseResult(p), "runaway", nil
			}
			// Cadence boundary: seal the live process under the next
			// epoch. A failed seal is not fatal — the run continues and
			// the chain simply misses one link.
			epoch := store.NewestEpoch() + 1
			if blob, err := s.Kernel.Checkpoint(p, epoch); err != nil {
				stats.CheckpointErrors++
			} else if err := store.Put(epoch, blob); err != nil {
				stats.CheckpointErrors++
			} else {
				stats.Checkpoints++
			}
			// Traps can overshoot the boundary by their whole cost;
			// advance past the current position, not just one step.
			for next <= p.CPU.Cycles {
				next += cfg.CheckpointEvery
			}
		case errors.As(runErr, &fault):
			return superviseResult(p), "crash", nil
		default:
			return nil, "", fmt.Errorf("core: run %s: %w", name, runErr)
		}
	}
}

func superviseResult(p *kernel.Process) *Result {
	return &Result{
		Output:   p.Output(),
		ExitCode: p.Code,
		Killed:   p.Killed,
		Reason:   p.KilledBy,
		Cycles:   p.CPU.Cycles,
		Syscalls: p.SyscallCount,
		Verified: p.VerifyCount,
		Cache:    p.CacheStats(),
	}
}
