// cluster.go extends the campaign to the cluster surface: faults that
// kill nodes, tear migration handshakes, and replay or misdirect sealed
// migration envelopes. Each trial runs a small fleet of one victim
// across a 3-node cluster on the deterministic virtual clock, injects
// the class's fault at a seeded tick, and checks the cluster contract:
//
//   - crash classes lose no authenticated state — every process
//     completes with the single-node reference output, recovered warm
//     (zero cold starts) from its durable sealed checkpoints;
//   - replay and spoof deliveries are rejected at 100% with their
//     canonical reasons ("epoch-replay" from the fence,
//     "node-mismatch" from the kernel's envelope check); and
//   - a heartbeat delay below the miss threshold causes no false
//     suspicion: no declared failures, no failovers.
//
// Like the checkpoint classes, cluster faults live entirely outside the
// enforcement path, so a trial's Kill and Deny runs must be identical.
package fault

import (
	"fmt"

	"asc/internal/cluster"
	"asc/internal/core"
)

// The cluster fault classes.
const (
	// ClusterCrash crashes one node mid-run; its processes must fail
	// over warm to survivors.
	ClusterCrash Class = "node-crash"
	// ClusterCrashMidMig crashes the source or destination node in the
	// middle of a migration transfer — a torn handshake.
	ClusterCrashMidMig Class = "node-crash-mid-migration"
	// ClusterReplay delivers a captured genuine migration envelope a
	// second time to its own destination node.
	ClusterReplay Class = "migration-replay"
	// ClusterSpoof delivers a captured envelope to a node it was never
	// sealed for.
	ClusterSpoof Class = "node-spoof"
	// ClusterDelay delays one node's heartbeats below the miss
	// threshold — the false-suspicion probe.
	ClusterDelay Class = "heartbeat-delay"
)

// clusterFleet is how many copies of the victim each trial runs — one
// per node, so round-robin places exactly one process on the node the
// fault targets.
const clusterFleet = 3

// clusterTrial is the state one trial's OnTick hook accumulates.
type clusterTrial struct {
	fired    bool
	reasons  []string // rejection reasons from attack deliveries
	hookErrs []string
}

// onCluster is a cluster-layer row; check holds the class's own
// contract on the fleet report.
func onCluster(c Class, check func(*cluster.FleetReport, *Outcome), reasons ...string) Scenario {
	return Scenario{Name: c, Layer: LayerCluster, Eligible: checkpointable, Prepare: prepRef,
		Expect: detects(reasons), Trial: func(t *trial) (Outcome, error) {
			tr := &clusterTrial{}
			ccfg, reqs := fleet(t)
			ccfg.OnTick = clusterHook(c, t.pick(), tr)
			d, err := cluster.New(ccfg)
			if err != nil {
				return Outcome{}, err
			}
			rep, err := d.Run(reqs)
			if err != nil {
				return Outcome{}, err
			}
			o := fleetOutcome(t, tr, rep.Procs)
			check(rep, &o)
			return o, nil
		}}
}

// fleet is one trial's cluster configuration and fleet: one copy of the
// victim per node, its slice stretching the victim across ~10 scheduler
// ticks.
func fleet(t *trial) (cluster.Config, []core.RunRequest) {
	slice := max(t.prep.ref.Cycles/10, 256)
	reqs := make([]core.RunRequest, clusterFleet)
	for i := range reqs {
		reqs[i] = core.RunRequest{Exe: t.exe, Name: fmt.Sprintf("v%d", i), Stdin: t.v.Stdin}
	}
	return cluster.Config{
		Nodes:           clusterFleet,
		Key:             t.cfg.Key,
		Enforcement:     t.mode,
		SliceCycles:     slice,
		CheckpointEvery: int64(slice),
		HeartbeatEvery:  1,
		MissThreshold:   3,
		MaxCycles:       t.cfg.MaxCycles,
	}, reqs
}

// fleetOutcome folds a fleet run into an outcome: the hook's verdicts,
// then zero authenticated-state loss — every process finishes clean
// with the single-node reference output, and no recovery is cold.
// Rejections inside the fleet (a refused stale store epoch surfaces in
// the fallback chain's per-process map) count with the hook's.
func fleetOutcome(t *trial, tr *clusterTrial, procs []cluster.ProcReport) Outcome {
	o := firedOutcome(tr.fired)
	o.Errs = append(o.Errs, tr.hookErrs...)
	for _, reason := range tr.reasons {
		o.reject(reason, 1)
	}
	recovered := true
	for _, pr := range procs {
		o.Recovery.add(Recovery{Failovers: pr.Failovers, WarmRestarts: pr.WarmRestarts,
			ColdStarts: pr.ColdStarts, Migrations: pr.Migrations, ReplayCycles: pr.ReplayCycles})
		switch {
		case pr.Err != nil:
			recovered = false
			o.fail("%s: %v", pr.Name, pr.Err)
		case pr.Result == nil || pr.Result.Killed || pr.Result.ExitCode != 0:
			recovered = false
			o.fail("%s: did not exit clean: %+v", pr.Name, pr.Result)
		case pr.Result.Output != t.prep.ref.Output:
			recovered = false
			o.fail("%s: output diverged from the single-node run", pr.Name)
		}
		if pr.ColdStarts != 0 {
			o.fail("%s: %d cold starts with durable checkpoints available", pr.Name, pr.ColdStarts)
		}
		for reason, n := range pr.Rejected {
			o.reject(reason, n)
		}
	}
	if recovered {
		o.Recovery.Recovered = 1
	}
	return o
}

// checkFailover: a crashed node is declared failed and its processes
// fail over.
func checkFailover(rep *cluster.FleetReport, o *Outcome) {
	if len(rep.NodesDown) == 0 {
		o.fail("crashed node was never declared failed")
	}
	if o.Recovery.Failovers == 0 {
		o.fail("node crash caused no failovers")
	}
}

// checkUndisturbed: a refused attack delivery leaves the fleet alone.
func checkUndisturbed(_ *cluster.FleetReport, o *Outcome) {
	if o.Recovery.Failovers != 0 {
		o.fail("attack delivery disturbed the fleet: %d failovers", o.Recovery.Failovers)
	}
}

// checkNoSuspicion: a heartbeat delay below the miss threshold misses
// beats but declares no node failed.
func checkNoSuspicion(rep *cluster.FleetReport, o *Outcome) {
	if len(rep.NodesDown) != 0 {
		o.fail("false suspicion: nodes declared down %v", rep.NodesDown)
	}
	if o.Recovery.Failovers != 0 {
		o.fail("heartbeat delay caused %d failovers", o.Recovery.Failovers)
	}
	if rep.MissedBeats == 0 {
		o.fail("heartbeat delay missed no beats")
	}
}

// clusterHook builds the OnTick fault injector for one trial. All
// decisions are a pure function of (class, pick), so the trial is
// deterministic.
func clusterHook(class Class, pick uint64, tr *clusterTrial) func(*cluster.Director, int) {
	fail := func(format string, args ...any) {
		tr.hookErrs = append(tr.hookErrs, fmt.Sprintf(format, args...))
	}
	switch class {
	case ClusterCrash:
		crashAt := 2 + int(pick%3)
		victim := cluster.NodeID(1 + (pick>>8)%clusterFleet)
		return func(d *cluster.Director, tick int) {
			if tick == crashAt {
				d.CrashNode(victim)
				tr.fired = true
			}
		}
	case ClusterCrashMidMig:
		migAt := 2 + int(pick%2)
		dst := cluster.NodeID(2 + (pick>>16)%2) // v0 lives on node 1
		crashSrc := (pick>>24)&1 == 0
		return func(d *cluster.Director, tick int) {
			if tick != migAt {
				return
			}
			opts := cluster.CleanMigrate()
			opts.TornAfter = int((pick >> 32) % 2)
			opts.CrashSrc = crashSrc
			opts.CrashDst = !crashSrc
			reason, err := d.Migrate("v0", dst, opts)
			if err != nil {
				fail("torn migrate: %v", err)
			}
			if reason != "" {
				fail("torn migrate returned verdict %q, want none", reason)
			}
			tr.fired = true
		}
	case ClusterReplay, ClusterSpoof:
		migAt := 2 + int(pick%2)
		attackAt := migAt + 2
		var captured []byte
		var epoch uint64
		return func(d *cluster.Director, tick int) {
			switch tick {
			case migAt:
				opts := cluster.CleanMigrate()
				opts.Capture = &captured
				if reason, err := d.Migrate("v0", 2, opts); err != nil || reason != "" {
					fail("setup migrate: reason=%q err=%v", reason, err)
					return
				}
				epoch = d.Epoch("v0")
			case attackAt:
				if len(captured) == 0 {
					return
				}
				target := cluster.NodeID(2) // replay: the genuine destination
				if class == ClusterSpoof {
					target = 3 // spoof: a node the envelope was never sealed for
				}
				reason, err := d.Deliver(captured, target, "v0", epoch)
				if err != nil {
					fail("attack deliver: %v", err)
					return
				}
				tr.fired = true
				if reason == "" {
					fail("attack delivery was accepted: fence/envelope failed")
					return
				}
				tr.reasons = append(tr.reasons, reason)
			}
		}
	case ClusterDelay:
		delayAt := 2 + int(pick%3)
		victim := cluster.NodeID(1 + (pick>>8)%clusterFleet)
		return func(d *cluster.Director, tick int) {
			if tick == delayAt {
				d.DelayHeartbeats(victim, 2) // below the threshold of 3
				tr.fired = true
			}
		}
	}
	return func(*cluster.Director, int) {}
}
