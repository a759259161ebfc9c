// durable.go extends the campaign to the durable control plane: faults
// against the director's sealed WAL, the persistent checkpoint store,
// and the replicated-takeover path. Each trial runs a 3-victim fleet on
// a durable 3-node cluster with a warm standby attached and checks the
// control-plane contract:
//
//   - crash classes (torn WAL tail, director death mid-migration) lose
//     nothing: the standby takes over by replaying the WAL and every
//     process completes with the single-node reference output — zero
//     cold starts, term exactly 2;
//   - probe classes (record bit flip, stale-log replay) are pure
//     validation attacks on copies of the on-disk images: they must be
//     rejected with their canonical reasons ("wal-tamper",
//     "wal-replay") while the running fleet is never disturbed; and
//   - a stale blob written over the newest store epoch is refused at
//     restore with "epoch-replay" and the fallback chain recovers warm
//     from the older genuine checkpoint.
//
// Durable faults live outside the enforcement path, so a trial's Kill
// and Deny runs must be identical.
package fault

import (
	"fmt"

	"asc/internal/cluster"
	"asc/internal/durable"
	"asc/internal/seal"
)

// The durable control-plane fault classes.
const (
	// DurableTornTail crashes the director mid-append, leaving a torn
	// final WAL frame; the standby must truncate and take over.
	DurableTornTail Class = "wal-torn-tail"
	// DurableRecordFlip flips one bit inside a sealed WAL record image;
	// validation must refuse the whole log as tampered.
	DurableRecordFlip Class = "wal-record-flip"
	// DurableStaleLog validates an old snapshot of the log against the
	// current anchor — the rolled-back-log replay.
	DurableStaleLog Class = "wal-replay-old-log"
	// DurableStaleEpoch overwrites the newest on-disk store epoch with
	// an older sealed blob, then crashes the owner node.
	DurableStaleEpoch Class = "store-stale-epoch"
	// DurableDirectorCrash kills the director in the worst migration
	// window: checkpoint durable, source fenced, zero bytes moved.
	DurableDirectorCrash Class = "director-crash-mid-migration"
)

// durableDir is where each trial's cluster keeps its control plane.
const durableDir = "/director"

// onDurable is a durable-layer row: the fleet runs on a durable 3-node
// cluster with a warm standby attached; check holds the class's own
// contract on the HA report.
func onDurable(c Class, check func(*cluster.HAReport, *Outcome), reasons ...string) Scenario {
	return Scenario{Name: c, Layer: LayerDurable, Eligible: checkpointable, Prepare: prepRef,
		Expect: detects(reasons), Trial: func(t *trial) (Outcome, error) {
			tr := &clusterTrial{}
			ccfg, reqs := fleet(t)
			ccfg.DurableDir = durableDir
			h, err := cluster.NewHA(cluster.HAConfig{
				Cluster: ccfg,
				Standby: true,
				OnTick:  durableHook(t.cfg, c, t.pick(), tr),
			})
			if err != nil {
				return Outcome{}, err
			}
			rep, err := h.Run(reqs)
			if err != nil {
				return Outcome{}, err
			}
			o := fleetOutcome(t, tr, rep.Fleet.Procs)
			if rep.DirectorLost {
				o.fail("director lost despite standby")
			}
			check(rep, &o)
			return o, nil
		}}
}

// checkTornTail: the standby takes over once, recovers the torn tail,
// and accounts for every process.
func checkTornTail(rep *cluster.HAReport, o *Outcome) {
	if rep.Term != 2 {
		o.fail("term %d after director crash, want 2 (one takeover)", rep.Term)
	}
	if !rep.WALTorn {
		o.fail("takeover did not report the torn WAL tail")
	}
	if rep.Reattached+rep.Restored != clusterFleet {
		o.fail("takeover accounted for %d of %d processes", rep.Reattached+rep.Restored, clusterFleet)
	}
}

// checkProbe: a validation probe on a copy of the on-disk log never
// disturbs the running fleet.
func checkProbe(rep *cluster.HAReport, o *Outcome) {
	if o.Recovery.Failovers != 0 {
		o.fail("probe disturbed the fleet: %d failovers", o.Recovery.Failovers)
	}
	if rep.Term != 1 {
		o.fail("probe caused a takeover: term %d", rep.Term)
	}
}

// checkStaleEpoch: after refusing the stale epoch, the fallback chain
// recovers the crashed owner's process warm.
func checkStaleEpoch(rep *cluster.HAReport, o *Outcome) {
	if o.Recovery.WarmRestarts == 0 {
		o.fail("no warm restart after refusing the stale epoch")
	}
	if len(rep.Fleet.NodesDown) != 1 {
		o.fail("NodesDown = %v, want exactly the crashed owner", rep.Fleet.NodesDown)
	}
}

// checkDirectorCrash: the takeover finishes the mid-migration process.
func checkDirectorCrash(rep *cluster.HAReport, o *Outcome) {
	if rep.Term != 2 {
		o.fail("term %d after director crash, want 2", rep.Term)
	}
	if rep.Restored == 0 {
		o.fail("mid-migration process was not finished by the takeover")
	}
}

// durableHook builds the per-trial fault injector. All decisions are a
// pure function of (class, pick), so trials are deterministic at any
// worker count.
func durableHook(cfg Config, class Class, pick uint64, tr *clusterTrial) func(*cluster.HA, int) {
	fail := func(format string, args ...any) {
		tr.hookErrs = append(tr.hookErrs, fmt.Sprintf(format, args...))
	}
	switch class {
	case DurableTornTail:
		crashAt := 3 + int(pick%3)
		return func(h *cluster.HA, tick int) {
			if tick != crashAt {
				return
			}
			h.CrashPrimary()
			if err := durable.Tear(h.Primary.FS, durableDir, cfg.Key); err != nil {
				fail("tear: %v", err)
				return
			}
			tr.fired = true
		}
	case DurableRecordFlip:
		probeAt := 3 + int(pick%3)
		return func(h *cluster.HA, tick int) {
			if tick != probeAt {
				return
			}
			fs := h.Primary.FS
			logB, err := fs.ReadFile(durable.LogPath(durableDir))
			if err != nil {
				fail("read log: %v", err)
				return
			}
			anchorB, err := fs.ReadFile(durable.AnchorPath(durableDir))
			if err != nil {
				fail("read anchor: %v", err)
				return
			}
			frames := durable.Frames(logB)
			if len(frames) == 0 {
				fail("no sealed frames to flip")
				return
			}
			// Flip one bit inside a frame's body or tag (never the
			// length prefix: that would read as torn, not tampered).
			f := frames[int(pick>>8)%len(frames)]
			off := f.Off + 4 + int(pick>>16)%(f.Len-4)
			flipped := append([]byte(nil), logB...)
			flipped[off] ^= 1 << (pick >> 32 % 8)
			tr.fired = true
			if _, err := durable.ValidateBytes(cfg.Key, flipped, anchorB); err != nil {
				tr.reasons = append(tr.reasons, seal.Reason(err))
			} else {
				fail("bit-flipped WAL image validated")
			}
		}
	case DurableStaleLog:
		snapAt := 2 + int(pick%2)
		probeAt := snapAt + 3
		var snapped []byte
		return func(h *cluster.HA, tick int) {
			fs := h.Primary.FS
			switch tick {
			case snapAt:
				b, err := fs.ReadFile(durable.LogPath(durableDir))
				if err != nil {
					fail("snapshot log: %v", err)
					return
				}
				snapped = append([]byte(nil), b...)
			case probeAt:
				if snapped == nil {
					return
				}
				anchorB, err := fs.ReadFile(durable.AnchorPath(durableDir))
				if err != nil {
					fail("read anchor: %v", err)
					return
				}
				tr.fired = true
				// The old image is internally consistent; only the
				// anchor's freshness can convict it.
				if _, err := durable.ValidateBytes(cfg.Key, snapped, anchorB); err != nil {
					tr.reasons = append(tr.reasons, seal.Reason(err))
				} else {
					fail("stale WAL snapshot validated against a fresh anchor")
				}
			}
		}
	case DurableStaleEpoch:
		tamperAt := 4 + int(pick%2)
		return func(h *cluster.HA, tick int) {
			if tick != tamperAt {
				return
			}
			fs := h.Primary.FS
			sd := durable.StoreDir(durableDir, "v0")
			st, err := durable.OpenStore(fs, sd)
			if err != nil {
				fail("open store: %v", err)
				return
			}
			chain := st.Chain()
			if len(chain) < 2 {
				fail("need two sealed epochs to tamper, have %d", len(chain))
				return
			}
			// The newest epoch's file now holds an older sealed blob; the
			// restore chain must refuse it and fall back warm.
			stale := chain[1].Blob
			if err := fs.WriteFile(durable.EpochPath(sd, chain[0].Epoch), stale, 0o644); err != nil {
				fail("overwrite epoch: %v", err)
				return
			}
			h.Primary.CrashNode(1) // v0's round-robin home
			tr.fired = true
		}
	case DurableDirectorCrash:
		migAt := 2 + int(pick%2)
		dst := cluster.NodeID(2 + (pick>>8)%2) // v0 lives on node 1
		return func(h *cluster.HA, tick int) {
			if tick != migAt {
				return
			}
			opts := cluster.CleanMigrate()
			opts.CrashDirector = true
			if _, err := h.Primary.Migrate("v0", dst, opts); err != nil {
				fail("migrate: %v", err)
				return
			}
			tr.fired = true
		}
	}
	return func(*cluster.HA, int) {}
}
