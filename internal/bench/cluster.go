// cluster.go measures failover under the fleet director: a fleet of
// loop workloads spread across N kernel nodes loses one node mid-run,
// and the director must notice (heartbeats), re-place the displaced
// processes on survivors, and resume them warm from sealed checkpoints.
// Sweeping cluster width against heartbeat cadence shows the detection
// trade the operator tunes: frequent heartbeats shorten the window a
// dead node holds work hostage, sparse ones cost less control-plane
// traffic but stretch the failover. The table behind BENCH_cluster.json.
package bench

import (
	"fmt"
	"strings"

	"asc/internal/binfmt"
	"asc/internal/cluster"
	"asc/internal/core"
	"asc/internal/workload"
)

// ClusterNodes is the width sweep; ClusterHeartbeats the cadence sweep
// (heartbeat rounds every that many ticks).
var (
	ClusterNodes      = []int{2, 3, 4}
	ClusterHeartbeats = []int{1, 2, 4}
)

// clusterBenchSource is the sweep's victim: a getpid loop with the
// iteration count fixed in the source, so the clean cycle count — and
// with it every figure in the table — is deterministic.
const clusterBenchSource = `
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

// ClusterPoint is one (width, cadence) cell's failover measurement.
type ClusterPoint struct {
	Nodes          int `json:"nodes"`
	HeartbeatEvery int `json:"heartbeat_every"` // ticks between heartbeat rounds
	Procs          int `json:"procs"`           // fleet size (two per node)
	Ticks          int `json:"ticks"`           // virtual clock at fleet completion
	// DetectTicks is crash → node declared failed; FailoverTicks is
	// crash → the last displaced process re-placed on a survivor.
	DetectTicks   int `json:"detect_ticks"`
	FailoverTicks int `json:"failover_ticks"`
	Failovers     int `json:"failovers"`
	WarmRestarts  int `json:"warm_restarts"`
	ColdStarts    int `json:"cold_starts"`
	Checkpoints   int `json:"checkpoints"`
	// ReplayCycles is work re-executed between each restore point and
	// the crash; RestoredCycles is work the checkpoints preserved.
	// RecoveredPct = restored / (restored + replayed): the fraction of
	// in-flight work the sealed checkpoints saved.
	ReplayCycles   uint64  `json:"replay_cycles"`
	RestoredCycles uint64  `json:"restored_cycles"`
	RecoveredPct   float64 `json:"recovered_pct"`
	Beats          int     `json:"beats"`
	MissedBeats    int     `json:"missed_beats"`
}

// TakeoverPoint is one heartbeat-cadence cell of the director-takeover
// arm: the director is killed in the worst migration window (checkpoint
// durable, source fenced, zero bytes moved) and a warm standby must
// notice, replay the sealed WAL, and resume the fleet.
type TakeoverPoint struct {
	HeartbeatEvery int `json:"heartbeat_every"`
	Procs          int `json:"procs"`
	CrashTick      int `json:"crash_tick"`    // virtual time the director dies
	TakeoverTick   int `json:"takeover_tick"` // virtual time the standby takes over
	DetectTicks    int `json:"detect_ticks"`  // takeover latency (missed-beat detection)
	Ticks          int `json:"ticks"`         // virtual clock at fleet completion
	// Reattached processes resume live on their surviving nodes;
	// Restored is the mid-migration process finished warm from the
	// persistent store.
	Reattached   int    `json:"reattached"`
	Restored     int    `json:"restored"`
	WarmRestarts int    `json:"warm_restarts"`
	ColdStarts   int    `json:"cold_starts"`
	WALRecords   int    `json:"wal_records"` // sealed records the takeover replayed
	Term         uint32 `json:"term"`        // director generation after recovery (2 = one takeover)
}

// ClusterData is the full failover sweep.
type ClusterData struct {
	Iters       int             `json:"iters"`
	CleanCycles uint64          `json:"clean_cycles"` // one process's uninterrupted cost
	SliceCycles uint64          `json:"slice_cycles"` // per-tick slice (clean/10)
	CrashTick   int             `json:"crash_tick"`   // virtual time node 1 dies in every cell
	Points      []ClusterPoint  `json:"points"`
	Takeover    []TakeoverPoint `json:"takeover,omitempty"`
}

// Cluster runs the failover sweep: for each (width, cadence) cell a
// fleet of two processes per node runs across the cluster, node 1 is
// crashed at a fixed virtual tick, and the fleet must still complete
// with every output identical to the single-node run, recovered warm
// (zero cold starts). Any loss, cold start, or rejection is an error —
// nothing in this sweep is tampered, so integrity machinery must be
// invisible here.
func Cluster(key []byte, iters int) (*ClusterData, error) {
	if iters < 2 {
		iters = 400
	}
	v := workload.FaultVictim{Name: "cluster-loop", Source: fmt.Sprintf(clusterBenchSource, iters)}
	exe, err := v.Build(key)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(core.Config{Key: key})
	if err != nil {
		return nil, err
	}
	ref, err := sys.Exec(exe, "cluster-loop", "")
	if err != nil {
		return nil, err
	}
	if ref.Killed || ref.ExitCode != 0 {
		return nil, fmt.Errorf("bench: cluster clean run failed: %+v", ref)
	}
	slice := ref.Cycles / 10
	if slice < 256 {
		slice = 256
	}
	out := &ClusterData{
		Iters:       iters,
		CleanCycles: ref.Cycles,
		SliceCycles: slice,
		CrashTick:   3,
	}
	for _, nodes := range ClusterNodes {
		for _, hb := range ClusterHeartbeats {
			p, err := clusterCell(key, exe, ref, out, nodes, hb)
			if err != nil {
				return nil, fmt.Errorf("bench: cluster %d nodes, heartbeat/%d: %w", nodes, hb, err)
			}
			out.Points = append(out.Points, p)
		}
	}
	for _, hb := range ClusterHeartbeats {
		p, err := takeoverCell(key, exe, ref, out, hb)
		if err != nil {
			return nil, fmt.Errorf("bench: takeover heartbeat/%d: %w", hb, err)
		}
		out.Takeover = append(out.Takeover, p)
	}
	return out, nil
}

// takeoverCell kills the director mid-migration on a durable 3-node
// cluster with a warm standby and accounts for the takeover: detection
// latency, WAL replay size, and the recovery split (live re-attach vs
// warm restore). Cold starts are an error — durable control-plane state
// means a director death never loses fleet progress.
func takeoverCell(key []byte, exe *binfmt.File, ref *core.Result, data *ClusterData, hb int) (TakeoverPoint, error) {
	const nodes = 3
	crashTick := 4
	h, err := cluster.NewHA(cluster.HAConfig{
		Cluster: cluster.Config{
			Nodes:           nodes,
			Key:             key,
			SliceCycles:     data.SliceCycles,
			CheckpointEvery: int64(data.SliceCycles),
			HeartbeatEvery:  hb,
			MissThreshold:   3,
			DurableDir:      "/director",
		},
		Standby: true,
		OnTick: func(ha *cluster.HA, tick int) {
			if tick == crashTick {
				opts := cluster.CleanMigrate()
				opts.CrashDirector = true
				_, _ = ha.Primary.Migrate("c0", 2, opts)
			}
		},
	})
	if err != nil {
		return TakeoverPoint{}, err
	}
	procs := 2 * nodes
	reqs := make([]core.RunRequest, procs)
	for i := range reqs {
		reqs[i] = core.RunRequest{Exe: exe, Name: fmt.Sprintf("c%d", i)}
	}
	rep, err := h.Run(reqs)
	if err != nil {
		return TakeoverPoint{}, err
	}
	p := TakeoverPoint{
		HeartbeatEvery: hb,
		Procs:          procs,
		CrashTick:      rep.CrashTick,
		TakeoverTick:   rep.TakeoverTick,
		DetectTicks:    rep.DetectTicks,
		Ticks:          rep.Fleet.Ticks,
		Reattached:     rep.Reattached,
		Restored:       rep.Restored,
		WALRecords:     rep.WALRecords,
		Term:           rep.Term,
	}
	if rep.DirectorLost || rep.Term != 2 {
		return p, fmt.Errorf("takeover failed: lost=%v term=%d", rep.DirectorLost, rep.Term)
	}
	for _, pr := range rep.Fleet.Procs {
		if pr.Err != nil {
			return p, fmt.Errorf("%s: %v", pr.Name, pr.Err)
		}
		if pr.Result == nil || pr.Result.Killed || pr.Result.ExitCode != 0 {
			return p, fmt.Errorf("%s: did not exit clean: %+v", pr.Name, pr.Result)
		}
		if pr.Result.Output != ref.Output {
			return p, fmt.Errorf("%s: output diverged from the single-node run", pr.Name)
		}
		p.WarmRestarts += pr.WarmRestarts
		p.ColdStarts += pr.ColdStarts
	}
	if p.ColdStarts != 0 {
		return p, fmt.Errorf("%d cold starts across a director takeover", p.ColdStarts)
	}
	if p.Reattached+p.Restored != procs {
		return p, fmt.Errorf("takeover accounted for %d of %d processes", p.Reattached+p.Restored, procs)
	}
	return p, nil
}

// clusterCell runs one (width, cadence) cell: crash node 1 at the fixed
// tick and account for the recovery.
func clusterCell(key []byte, exe *binfmt.File, ref *core.Result, data *ClusterData, nodes, hb int) (ClusterPoint, error) {
	d, err := cluster.New(cluster.Config{
		Nodes:           nodes,
		Key:             key,
		SliceCycles:     data.SliceCycles,
		CheckpointEvery: int64(data.SliceCycles),
		HeartbeatEvery:  hb,
		MissThreshold:   3,
		OnTick: func(dir *cluster.Director, tick int) {
			if tick == data.CrashTick {
				dir.CrashNode(1)
			}
		},
	})
	if err != nil {
		return ClusterPoint{}, err
	}
	procs := 2 * nodes
	reqs := make([]core.RunRequest, procs)
	for i := range reqs {
		reqs[i] = core.RunRequest{Exe: exe, Name: fmt.Sprintf("c%d", i)}
	}
	rep, err := d.Run(reqs)
	if err != nil {
		return ClusterPoint{}, err
	}

	p := ClusterPoint{
		Nodes:          nodes,
		HeartbeatEvery: hb,
		Procs:          procs,
		Ticks:          rep.Ticks,
		Beats:          rep.Beats,
		MissedBeats:    rep.MissedBeats,
	}
	for _, pr := range rep.Procs {
		if pr.Err != nil {
			return p, fmt.Errorf("%s: %v", pr.Name, pr.Err)
		}
		if pr.Result == nil || pr.Result.Killed || pr.Result.ExitCode != 0 {
			return p, fmt.Errorf("%s: did not exit clean: %+v", pr.Name, pr.Result)
		}
		if pr.Result.Output != ref.Output {
			return p, fmt.Errorf("%s: output diverged from the single-node run", pr.Name)
		}
		if pr.ColdStarts != 0 || len(pr.Rejected) != 0 {
			return p, fmt.Errorf("%s: cold starts %d, rejections %v on an untampered fleet",
				pr.Name, pr.ColdStarts, pr.Rejected)
		}
		p.Failovers += pr.Failovers
		p.WarmRestarts += pr.WarmRestarts
		p.Checkpoints += pr.Checkpoints
		p.ReplayCycles += pr.ReplayCycles
		p.RestoredCycles += pr.RestoredCycles
	}
	if p.Failovers == 0 || p.WarmRestarts != p.Failovers {
		return p, fmt.Errorf("crash recovered %d/%d failovers warm", p.WarmRestarts, p.Failovers)
	}
	if total := p.RestoredCycles + p.ReplayCycles; total > 0 {
		p.RecoveredPct = 100 * float64(p.RestoredCycles) / float64(total)
	}

	// Timeline from the control-plane events: crash → declared failed →
	// last displaced process re-placed.
	detect, replaced := -1, -1
	for _, ev := range rep.Events {
		switch {
		case detect == -1 && strings.Contains(ev.What, "declared failed"):
			detect = ev.Tick
		case strings.Contains(ev.What, "re-placed on node"):
			replaced = ev.Tick
		}
	}
	if detect == -1 || replaced == -1 {
		return p, fmt.Errorf("timeline incomplete: detect tick %d, re-place tick %d", detect, replaced)
	}
	p.DetectTicks = detect - data.CrashTick
	p.FailoverTicks = replaced - data.CrashTick
	return p, nil
}

// Render prints the failover sweep table.
func (t *ClusterData) Render() string {
	header := []string{"Nodes", "Heartbeat", "Procs", "Detect (ticks)", "Failover (ticks)", "Warm restarts", "Replayed cycles", "Recovered %", "Missed beats"}
	var rows [][]string
	for _, p := range t.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("every %d", p.HeartbeatEvery),
			fmt.Sprintf("%d", p.Procs),
			fmt.Sprintf("%d", p.DetectTicks),
			fmt.Sprintf("%d", p.FailoverTicks),
			fmt.Sprintf("%d", p.WarmRestarts),
			fmt.Sprintf("%d", p.ReplayCycles),
			fmt.Sprintf("%.1f", p.RecoveredPct),
			fmt.Sprintf("%d", p.MissedBeats),
		})
	}
	title := fmt.Sprintf("Cluster failover: clean run %d cycles, slice %d, node 1 crashed at tick %d, warm re-placement from sealed checkpoints",
		t.CleanCycles, t.SliceCycles, t.CrashTick)
	out := renderTable(title, header, rows)
	if len(t.Takeover) == 0 {
		return out
	}
	header = []string{"Heartbeat", "Procs", "Detect (ticks)", "WAL records", "Re-attached", "Warm restored", "Cold starts", "Term"}
	rows = rows[:0]
	for _, p := range t.Takeover {
		rows = append(rows, []string{
			fmt.Sprintf("every %d", p.HeartbeatEvery),
			fmt.Sprintf("%d", p.Procs),
			fmt.Sprintf("%d", p.DetectTicks),
			fmt.Sprintf("%d", p.WALRecords),
			fmt.Sprintf("%d", p.Reattached),
			fmt.Sprintf("%d", p.Restored),
			fmt.Sprintf("%d", p.ColdStarts),
			fmt.Sprintf("%d", p.Term),
		})
	}
	title = "Director takeover: primary killed mid-migration on a durable 3-node cluster, warm standby replays the sealed WAL"
	return out + "\n" + renderTable(title, header, rows)
}
