// scenario.go is the campaign's single fault-scenario registry: every
// fault class, the layer it attacks, the victims it runs against, how
// one run of a trial executes, and the contract its outcome must meet.
// The driver in campaign.go knows nothing layer-specific beyond the
// kernel layer's four arms.
package fault

import (
	"fmt"

	"asc/internal/binfmt"
	"asc/internal/ckpt"
	"asc/internal/core"
	"asc/internal/kernel"
	"asc/internal/seal"
	"asc/internal/workload"
)

// The layers a scenario attacks.
const (
	// LayerKernel: live process state on the verify path, injected by
	// an Engine.
	LayerKernel = "kernel"
	// LayerCkpt: sealed checkpoints at rest, during supervised warm
	// restarts.
	LayerCkpt = "ckpt"
	// LayerCluster: nodes, migrations and heartbeats of a 3-node fleet.
	LayerCluster = "cluster"
	// LayerDurable: the director's WAL, persistent store and takeover.
	LayerDurable = "durable"
)

// Scenario is one fault class of the campaign.
type Scenario struct {
	Name  Class
	Layer string
	// Eligible reports whether the scenario runs against a victim; nil
	// admits every victim.
	Eligible func(*workload.FaultVictim) bool
	// Prepare measures an eligible victim once, serially, before the
	// trials fan out. It runs once per (layer, victim), and every
	// scenario of the layer shares the result read-only. Nil means the
	// layer needs no preparation.
	Prepare func(Config, *workload.FaultVictim, *binfmt.File) (*prep, error)
	// Trial executes one run of one trial and reports its outcome,
	// including any breach of the layer's own recovery contract.
	Trial func(*trial) (Outcome, error)
	// Expect is the detection contract every run is checked against.
	Expect Expect
}

func (s *Scenario) eligible(v *workload.FaultVictim) bool {
	return s.Eligible == nil || s.Eligible(v)
}

// registry is every scenario in canonical order: kernel, ckpt, cluster,
// durable.
var registry = []Scenario{
	// A record or descriptor flip can surface as a record that no
	// longer decodes, a call MAC that no longer matches, or — when the
	// flip redirects a string/pattern bit — a failed argument check
	// against garbage metadata.
	onKernel(FlipRecord, false, recordReasons...),
	// The flip window covers the string bytes AND the AS header; the
	// header's length and MAC fields are bound into the call encoding,
	// so a header flip surfaces as a call-MAC mismatch (or a malformed
	// record when the corrupted length makes the read fail) rather than
	// a string-MAC mismatch. All three are detections.
	onKernel(FlipString, false, kernel.KillBadString, kernel.KillBadCallMAC, kernel.KillBadRecord),
	onKernel(FlipCFState, false, kernel.KillBadState),
	onKernel(FlipDescriptor, false, recordReasons...),
	// Outside the MAC boundary: the kernel must survive it cleanly.
	onKernel(FlipCacheGen, false),
	onKernel(DropNonce, true, kernel.KillBadState),
	onKernel(DupNonce, true, kernel.KillBadState),
	onKernel(TornStore, true, kernel.KillBadState),
	onKernel(FlipSockPort, false, kernel.KillBadCallMAC),
	onKernel(FlipSockMsg, false, kernel.KillBadString),
	onKernel(ReplaySockCF, true, kernel.KillBadState),
	onKernel(FlipPollFD, false, kernel.KillBadCallMAC),
	onKernel(ReplayPollCF, true, kernel.KillBadState),
	// Swap faults are detected at the later fault-in that re-verifies
	// the frame, not at the eviction that tampered it.
	onKernel(SwapFlip, true, kernel.KillSwapSeal),
	onKernel(SwapReplay, true, kernel.KillSwapReplay),

	// There is no survivable checkpoint corruption, only detected
	// corruption. A long torn prefix still covers the 16-byte header
	// (seal fails); a short one does not even parse.
	onCkpt(CkptTorn, seal.ReasonTruncated, seal.ReasonSeal),
	onCkpt(CkptFlip, seal.ReasonSeal),
	onCkpt(CkptReplay, seal.ReasonEpoch),
	onCkpt(CkptSwap, seal.ReasonProgram),

	// Crash and delay classes reject nothing: their contract is
	// recovery.
	onCluster(ClusterCrash, checkFailover),
	onCluster(ClusterCrashMidMig, checkFailover),
	onCluster(ClusterReplay, checkUndisturbed, seal.ReasonEpoch),
	onCluster(ClusterSpoof, checkUndisturbed, seal.ReasonNode),
	onCluster(ClusterDelay, checkNoSuspicion),

	onDurable(DurableTornTail, checkTornTail),
	onDurable(DurableRecordFlip, checkProbe, seal.ReasonTamper),
	onDurable(DurableStaleLog, checkProbe, seal.ReasonReplay),
	onDurable(DurableStaleEpoch, checkStaleEpoch, seal.ReasonEpoch),
	onDurable(DurableDirectorCrash, checkDirectorCrash),
}

// recordReasons is what a flipped auth record or descriptor may be
// killed for.
var recordReasons = []kernel.KillReason{
	kernel.KillBadRecord, kernel.KillBadCallMAC,
	kernel.KillBadString, kernel.KillBadPattern,
	kernel.KillBadCapability, kernel.KillBadState,
}

// onKernel is a kernel-layer row: every victim, four kernel arms, and
// detection wherever the fault lands inside the MAC boundary (listed
// reasons) or clean survival where it does not (none).
func onKernel(c Class, deferred bool, reasons ...kernel.KillReason) Scenario {
	exp := Expect{Detected: len(reasons) > 0, Deferred: deferred}
	for _, r := range reasons {
		exp.Reasons = append(exp.Reasons, string(r))
	}
	return Scenario{Name: c, Layer: LayerKernel, Trial: kernelTrial, Expect: exp}
}

// detects is the contract of a layer above the kernel: a fault with
// listed reasons must be rejected with one of them; one without may
// cause no rejection at all.
func detects(reasons []string) Expect {
	return Expect{Detected: len(reasons) > 0, Reasons: reasons}
}

// checkpointable admits the victims the layers above the kernel can
// run. A process holding live sockets is not checkpointable by design
// (kernel.Checkpoint fails with ckpt.ErrUnsupported), so it has no chain
// to tamper with and cannot fail over. The paged victim's run is one
// long trapless sweep, and the checkpoint and cluster cadences assume
// trap-dense victims.
func checkpointable(v *workload.FaultVictim) bool { return !v.Net && !v.Paged }

// prep is a victim's serial measurement, shared read-only by every
// trial of one layer.
type prep struct {
	ref   *core.Result // the clean single-node run
	chain []ckpt.Entry // ckpt layer: the victim's pristine sealed chain
}

// prepRef measures one victim's single-node reference run: output
// identity across a failover is the zero-loss criterion.
func prepRef(cfg Config, v *workload.FaultVictim, exe *binfmt.File) (*prep, error) {
	sys, err := core.NewSystem(core.Config{Key: cfg.Key})
	if err != nil {
		return nil, err
	}
	res, err := sys.Exec(exe, v.Name, v.Stdin)
	if err != nil {
		return nil, fmt.Errorf("fault: clean run %s: %w", v.Name, err)
	}
	if res.Killed || res.ExitCode != 0 {
		return nil, fmt.Errorf("fault: clean run %s failed: %+v", v.Name, res)
	}
	return &prep{ref: res}, nil
}

// firedOutcome starts an outcome above the kernel, where a fault always
// has a target: one that never fired is itself a breach.
func firedOutcome(fired bool) Outcome {
	o := Outcome{Fired: fired}
	if !fired {
		o.fail("fault never fired")
	}
	return o
}

// Scenarios returns the registry in canonical order.
func Scenarios() []Scenario { return append([]Scenario(nil), registry...) }

// lookup finds a scenario by name.
func lookup(c Class) (Scenario, bool) {
	for _, sc := range registry {
		if sc.Name == c {
			return sc, true
		}
	}
	return Scenario{}, false
}

// selectScenarios returns the registry rows named in names, in registry
// order; nil names selects every row.
func selectScenarios(names []Class) ([]Scenario, error) {
	if names == nil {
		return registry, nil
	}
	want := map[Class]bool{}
	for _, c := range names {
		if _, ok := lookup(c); !ok {
			return nil, fmt.Errorf("fault: unknown scenario %q", c)
		}
		want[c] = true
	}
	var out []Scenario
	for _, sc := range registry {
		if want[sc.Name] {
			out = append(out, sc)
		}
	}
	return out, nil
}
