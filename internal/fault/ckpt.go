// ckpt.go extends the campaign to the checkpoint surface: faults that
// corrupt sealed checkpoints *at rest* rather than live process state. A
// CkptFault is installed as the checkpoint store's Tamper hook and
// perturbs the newest blob exactly once, as the supervisor fetches the
// fallback chain for a warm restart; the contract is that the tampered
// blob is rejected with the class's canonical reason, the restart falls
// back to the older intact checkpoint, and the workload still recovers.
// The contract's reasons are the scenario rows in scenario.go.
package fault

import (
	"fmt"

	"asc/internal/binfmt"
	"asc/internal/ckpt"
	"asc/internal/core"
	"asc/internal/workload"
)

// The checkpoint fault classes.
const (
	// CkptTorn truncates the newest sealed blob to a strict prefix — a
	// torn write to checkpoint storage.
	CkptTorn Class = "ckpt-torn-write"
	// CkptFlip flips one bit of the newest sealed blob.
	CkptFlip Class = "ckpt-bit-flip"
	// CkptReplay serves an older sealed blob in the newest slot — a
	// stale checkpoint replayed against the store's trusted epoch.
	CkptReplay Class = "ckpt-epoch-replay"
	// CkptSwap serves a blob sealed (under the same key) for a
	// *different* program at the same epoch — a cross-process swap.
	CkptSwap Class = "ckpt-wrong-process"
)

// CkptFault tampers with the newest entry of a checkpoint chain exactly
// once. Its decisions are a pure function of (class, seed), like
// Engine's.
type CkptFault struct {
	class Class
	pick  uint64
	// donor is a pristine chain sealed for a different program under the
	// same key; CkptSwap serves its epoch-matching blob.
	donor []ckpt.Entry
	fired bool
}

// NewCkptFault builds the tamper hook for one class. donor is only
// consulted by CkptSwap.
func NewCkptFault(class Class, seed uint64, donor []ckpt.Entry) *CkptFault {
	s := seed ^ uint64(len(class))<<56
	for _, b := range []byte(class) {
		s = s*1099511628211 + uint64(b)
	}
	_ = splitmix(&s)
	return &CkptFault{class: class, pick: splitmix(&s), donor: donor}
}

// Fired reports whether the tamper was applied.
func (f *CkptFault) Fired() bool { return f.fired }

// Tamper implements ckpt.Store.Tamper: the first fetch of the newest
// entry is perturbed; everything else (older entries, later walks)
// passes through pristine, so the fallback chain below the tampered
// blob stays intact.
func (f *CkptFault) Tamper(chain []ckpt.Entry, i int) []byte {
	blob := chain[i].Blob
	if f.fired || i != 0 || len(blob) == 0 {
		return blob
	}
	switch f.class {
	case CkptTorn:
		f.fired = true
		return blob[:f.pick%uint64(len(blob))]
	case CkptFlip:
		f.fired = true
		mut := append([]byte(nil), blob...)
		bit := f.pick % uint64(len(mut)*8)
		mut[bit/8] ^= 1 << (bit % 8)
		return mut
	case CkptReplay:
		if len(chain) < 2 {
			return blob // nothing older to replay yet
		}
		f.fired = true
		return chain[1].Blob
	case CkptSwap:
		for _, d := range f.donor {
			if d.Epoch == chain[i].Epoch {
				f.fired = true
				return d.Blob
			}
		}
		return blob // donor has no blob at this epoch
	}
	return blob
}

// ckptReplaySlack bounds how far a checkpoint boundary can overshoot its
// cadence mark: one trap's worth of verification work.
const ckptReplaySlack = 8192

// onCkpt is a checkpoint-layer row: every trial must tamper, be
// rejected with one of reasons, and recover warm.
func onCkpt(c Class, reasons ...string) Scenario {
	return Scenario{Name: c, Layer: LayerCkpt, Eligible: checkpointable,
		Prepare: prepChain, Trial: ckptTrial, Expect: detects(reasons)}
}

// prepChain measures a victim and seals its own pristine checkpoint
// chain: the swap donor for its neighbor victim.
func prepChain(cfg Config, v *workload.FaultVictim, exe *binfmt.File) (*prep, error) {
	p, err := prepRef(cfg, v, exe)
	if err != nil {
		return nil, err
	}
	store := ckpt.NewStore()
	donor, err := core.NewSystem(core.Config{Key: cfg.Key})
	if err != nil {
		return nil, err
	}
	stats, err := donor.Supervise(exe, v.Name, v.Stdin, core.SuperviseConfig{
		MaxRestarts:     core.NoRestarts,
		MaxCycles:       p.ref.Cycles * 2,
		CheckpointEvery: p.ref.Cycles / 6,
		Checkpoints:     store,
	})
	if err != nil {
		return nil, fmt.Errorf("fault: ckpt donor run %s: %w", v.Name, err)
	}
	if stats.GaveUp || stats.Checkpoints == 0 {
		return nil, fmt.Errorf("fault: ckpt donor run %s: %d checkpoints, gaveUp=%v",
			v.Name, stats.Checkpoints, stats.GaveUp)
	}
	p.chain = store.Chain()
	return p, nil
}

// ckptTrial drives the victim into a runaway with a budget smaller than
// its clean cycle count, so the supervisor must recover it through the
// (tampered) checkpoint chain.
func ckptTrial(t *trial) (Outcome, error) {
	budget := t.prep.ref.Cycles * 4 / 5
	every := budget / 3
	eng := NewCkptFault(t.class, t.subseed, t.donor.chain)
	store := ckpt.NewStore()
	store.Tamper = eng.Tamper
	sys, err := core.NewSystem(core.Config{Key: t.cfg.Key, Enforcement: t.mode})
	if err != nil {
		return Outcome{}, err
	}
	stats, err := sys.Supervise(t.exe, t.v.Name, t.v.Stdin, core.SuperviseConfig{
		MaxRestarts:     8,
		BackoffBase:     100,
		MaxCycles:       budget,
		CheckpointEvery: every,
		Checkpoints:     store,
	})
	if err != nil {
		return Outcome{}, err
	}

	o := firedOutcome(eng.Fired())
	rejected := 0
	for reason, n := range stats.CkptRejected {
		o.reject(reason, n)
		rejected += n
	}
	o.Recovery = Recovery{WarmRestarts: stats.WarmRestarts, ColdStarts: stats.ColdStarts,
		ReplayCycles: stats.ReplayCycles}
	if !stats.GaveUp && stats.Final != nil && !stats.Final.Killed && stats.Final.ExitCode == 0 {
		o.Recovery.Recovered = 1
	} else {
		o.fail("workload did not recover: %+v", stats.Final)
	}
	if stats.WarmRestarts == 0 {
		o.fail("no warm restart: fallback chain did not recover")
	}
	if stats.ColdStarts != 0 {
		o.fail("%d cold starts with an intact older checkpoint", stats.ColdStarts)
	}
	// Replay bound: a warm restart replays the cycles since its restore
	// point, and every rejected blob pushes that point one cadence
	// interval older.
	if bound := uint64(stats.WarmRestarts+rejected) * (every + ckptReplaySlack); stats.ReplayCycles > bound {
		o.fail("replayed %d cycles, bound %d (cadence %d, %d rejections)",
			stats.ReplayCycles, bound, every, rejected)
	}
	return o, nil
}
