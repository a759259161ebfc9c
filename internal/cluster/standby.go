// standby.go replicates the control plane. A warm standby tails the
// director's sealed WAL; when director heartbeats (KindBeat records)
// stop arriving for MissThreshold×HeartbeatEvery ticks, it takes over:
// the log is re-validated end to end from disk (recovering a torn tail,
// refusing tamper and stale snapshots), the fence and placement table
// are rebuilt by replaying every decision, the term is bumped with a
// takeover record — fencing out the deposed director's log handle — and
// the fleet resumes. Processes whose nodes survived are re-attached
// live (the data plane never died, only its coordinator); processes
// caught mid-migration or on dead nodes re-place warm from the
// persistent checkpoint store. The single-director invariants hold
// because takeover is replay, not guesswork: the WAL records every
// fence transition before its effect, so the shadow fence equals the
// fence the primary would have had.
package cluster

import (
	"errors"
	"fmt"

	"asc/internal/core"
	"asc/internal/durable"
	"asc/internal/kernel"
	"asc/internal/vfs"
)

// ErrDirectorLost reports a director crash with no standby configured:
// the fleet's processes keep their durable state, but nothing remains
// to drive them.
var ErrDirectorLost = errors.New("cluster: director lost and no standby configured")

// Standby is the warm replica: a verifying tailer over the director's
// WAL plus the missed-beat takeover rule.
type Standby struct {
	tailer   *durable.Tailer
	hb, miss int
	lastSeen int // virtual tick of the newest record tailed
}

// NewStandby attaches a standby to the WAL under dir.
func NewStandby(fs *vfs.FS, dir string, key []byte, heartbeatEvery, missThreshold int) (*Standby, error) {
	t, err := durable.NewTailer(fs, dir, key)
	if err != nil {
		return nil, err
	}
	return &Standby{tailer: t, hb: heartbeatEvery, miss: missThreshold}, nil
}

// Check tails newly sealed records and reports whether the director has
// missed enough beats that the standby must take over. Any record is
// evidence of liveness; KindBeat guarantees evidence at heartbeat
// cadence even when the fleet is idle.
func (s *Standby) Check(now int) bool {
	recs, err := s.tailer.Tail()
	if err == nil {
		for _, r := range recs {
			if int(r.Tick) > s.lastSeen {
				s.lastSeen = int(r.Tick)
			}
		}
	}
	return now-s.lastSeen > s.hb*s.miss
}

// HAConfig parameterizes a replicated control plane.
type HAConfig struct {
	// Cluster is the fleet configuration. DurableDir is required; the
	// OnTick hook must be unset (use HAConfig.OnTick — it sees the HA
	// wrapper, which outlives any one director).
	Cluster Config
	// Standby attaches a warm standby that takes over on missed
	// director heartbeats. Without it, a director crash loses the
	// fleet (ErrDirectorLost per process).
	Standby bool
	// OnTick runs at the start of every virtual tick while a director
	// is alive — the injection point for node crashes, migrations, and
	// director crashes (h.CrashPrimary, MigrateOpts.CrashDirector).
	OnTick func(h *HA, tick int)
}

// HAReport is a fleet report plus control-plane recovery accounting.
type HAReport struct {
	Fleet *FleetReport

	// DirectorLost: the primary crashed with no standby.
	DirectorLost bool
	// CrashTick/TakeoverTick are -1 when the event never happened.
	CrashTick    int
	TakeoverTick int
	// DetectTicks is the takeover latency (TakeoverTick - CrashTick).
	DetectTicks int
	// Term is the final director generation (1 = primary never lost).
	Term uint32
	// WALRecords is how many sealed records the takeover replayed;
	// WALTorn reports a torn tail was recovered.
	WALRecords int
	WALTorn    bool
	// Reattached: placements re-attached to live processes on
	// surviving nodes. Restored: placements left pending at takeover,
	// re-placed warm from the persistent store by the normal fallback
	// chain.
	Reattached int
	Restored   int
}

// HA drives a primary director with an optional warm standby on one
// virtual clock.
type HA struct {
	// Primary is the active director (the takeover replaces it).
	Primary *Director

	cfg     HAConfig
	sb      *Standby
	crashed bool
	rep     HAReport
}

// NewHA builds the cluster and, when configured, its standby.
func NewHA(cfg HAConfig) (*HA, error) {
	if cfg.Cluster.DurableDir == "" {
		return nil, errors.New("cluster: HA requires Config.DurableDir")
	}
	if cfg.Cluster.OnTick != nil {
		return nil, errors.New("cluster: HA fleets hook ticks via HAConfig.OnTick")
	}
	d, err := New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	h := &HA{Primary: d, cfg: cfg, rep: HAReport{CrashTick: -1, TakeoverTick: -1}}
	if cfg.Standby {
		h.sb, err = NewStandby(d.FS, d.cfg.DurableDir, d.cfg.Key, d.cfg.HeartbeatEvery, d.cfg.MissThreshold)
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// CrashPrimary kills the active director (fault injection). Nodes and
// their processes keep their state; only the coordinator dies.
func (h *HA) CrashPrimary() { h.Primary.selfCrashed = true }

// Run drives the fleet like Director.Run, surviving director crashes
// when a standby is attached.
func (h *HA) Run(reqs []core.RunRequest) (*HAReport, error) {
	if err := h.Primary.place(reqs); err != nil {
		return nil, err
	}
	maxTicks := h.Primary.cfg.MaxTicks
	for tick := 0; ; tick++ {
		d := h.Primary
		if tick >= maxTicks {
			for _, pl := range d.placements {
				if !pl.done {
					d.finish(pl, fmt.Errorf("cluster: %s: virtual clock exhausted at tick %d", pl.name, tick))
				}
			}
			break
		}
		if h.crashed {
			if h.sb == nil {
				h.rep.DirectorLost = true
				for _, pl := range d.placements {
					if !pl.done {
						d.finish(pl, fmt.Errorf("cluster: %s: %w", pl.name, ErrDirectorLost))
					}
				}
				break
			}
			if h.sb.Check(tick) {
				nd, err := h.takeover(tick)
				if err != nil {
					return nil, err
				}
				h.Primary = nd
				h.sb = nil
				h.crashed = false
			}
			continue
		}
		// The warm standby tails while the primary is healthy.
		if h.sb != nil {
			h.sb.Check(tick)
		}
		if h.cfg.OnTick != nil {
			h.cfg.OnTick(h, tick)
		}
		if h.Primary.selfCrashed {
			h.noteCrash(tick)
			continue
		}
		if h.Primary.allDone() {
			break
		}
		if h.Primary.stepTick() {
			break
		}
	}
	h.rep.Fleet = h.Primary.seal()
	h.rep.Term = 1
	if h.Primary.wal != nil {
		h.rep.Term = h.Primary.wal.Term()
	}
	return &h.rep, nil
}

func (h *HA) noteCrash(tick int) {
	h.crashed = true
	h.rep.CrashTick = tick
}

// shadowProc is the standby's per-process view rebuilt from the WAL.
type shadowProc struct {
	name     string
	stdin    []byte
	deadline uint64
	home     NodeID // 0 while homeless/pending
	pending  bool
	done     bool
	fin      *durable.Record
	rep      ProcReport
}

// takeover builds the successor director at virtual tick now: validate
// and recover the WAL from disk, replay every decision into a fresh
// fence and placement table, bump the term, and re-attach or re-place
// every unfinished process.
func (h *HA) takeover(now int) (*Director, error) {
	old := h.Primary
	cfg := old.cfg
	wal, info, err := durable.Open(old.FS, cfg.DurableDir, cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("cluster: takeover: %w", err)
	}
	// The takeover record opens the new term before anything else
	// happens: its anchor write fences the deposed director's log
	// handle, so a zombie primary can never append again.
	wal.BumpTerm()
	if err := wal.Append(&durable.Record{Kind: durable.KindTakeover, Tick: uint64(now)}); err != nil {
		return nil, fmt.Errorf("cluster: takeover record: %w", err)
	}
	h.rep.TakeoverTick = now
	h.rep.DetectTicks = now - h.rep.CrashTick
	h.rep.WALRecords = len(info.Records)
	h.rep.WALTorn = info.Torn

	nd := &Director{
		cfg:      cfg,
		FS:       old.FS,
		Fabric:   old.Fabric,
		nodes:    old.nodes,
		fence:    NewFence(),
		exes:     old.exes,
		byName:   make(map[string]*placement),
		declared: make([]bool, cfg.Nodes),
		misses:   make([]int, cfg.Nodes),
		tick:     now,
		wal:      wal,
		rep:      &FleetReport{},
	}
	// Display continuity: carry the observable timeline and heartbeat
	// totals forward. Every trust-relevant structure below is rebuilt
	// from the WAL, not copied.
	nd.rep.Events = append(nd.rep.Events, old.rep.Events...)
	nd.rep.Beats = old.rep.Beats
	nd.rep.MissedBeats = old.rep.MissedBeats

	// Replay: the same transitions the primary logged, in order.
	var order []string
	shadow := make(map[string]*shadowProc)
	sp := func(name string) *shadowProc {
		s := shadow[name]
		if s == nil {
			s = &shadowProc{name: name, rep: ProcReport{Name: name}}
			shadow[name] = s
			order = append(order, name)
		}
		return s
	}
	for i := range info.Records {
		r := &info.Records[i]
		switch r.Kind {
		case durable.KindPlace:
			s := sp(r.Name)
			s.stdin = r.Data
			s.deadline = r.Cycles
			s.home = NodeID(r.Node)
			s.pending = false
			nd.fence.Place(r.Name, NodeID(r.Node))
		case durable.KindColdStart:
			s := sp(r.Name)
			s.home = NodeID(r.Node)
			s.pending = false
			s.rep.ColdStarts++
			nd.fence.Place(r.Name, NodeID(r.Node))
		case durable.KindCheckpoint:
			sp(r.Name).rep.Checkpoints++
		case durable.KindExportFence:
			s := sp(r.Name)
			s.rep.Checkpoints++
			s.rep.Migrations++
			s.home = 0
			s.pending = true
			nd.fence.ExportFence(r.Name)
		case durable.KindMigDone:
			s := sp(r.Name)
			s.home = NodeID(r.Node)
			s.pending = false
			nd.fence.Commit(r.Name, r.Epoch, NodeID(r.Node))
		case durable.KindMigTorn:
			sp(r.Name).rep.Failovers++
		case durable.KindRestore:
			s := sp(r.Name)
			s.home = NodeID(r.Node)
			s.pending = false
			s.rep.WarmRestarts++
			s.rep.RestoredCycles += r.Cycles
			nd.fence.Commit(r.Name, r.Epoch, NodeID(r.Node))
		case durable.KindNodeDown:
			if n := int(r.Node); n >= 1 && n <= cfg.Nodes {
				nd.declared[n-1] = true
				nd.rep.NodesDown = append(nd.rep.NodesDown, NodeID(n))
			}
			nd.fence.NodeDown(NodeID(r.Node))
		case durable.KindFailover:
			s := sp(r.Name)
			s.home = 0
			s.pending = true
			s.rep.Failovers++
		case durable.KindFinish:
			s := sp(r.Name)
			s.done = true
			s.fin = r
		}
	}

	// Rebuild placements in original request order (KindPlace order).
	for _, name := range order {
		s := shadow[name]
		pl := &placement{
			name:      name,
			exe:       nd.exes[name],
			stdin:     string(s.stdin),
			home:      -1,
			deadline:  s.deadline,
			failovers: s.rep.Failovers,
			rep:       s.rep,
		}
		if pl.deadline == 0 {
			pl.deadline = cfg.MaxCycles
		}
		store, err := nd.newStore(name)
		if err != nil {
			return nil, err
		}
		pl.store = store
		nd.placements = append(nd.placements, pl)
		nd.byName[name] = pl
		if s.done {
			pl.done = true
			if f := s.fin; f != nil {
				pl.rep.Node = NodeID(f.Node)
				if f.Flags&durable.FlagErr != 0 {
					pl.rep.Err = errors.New(f.Str)
				} else {
					pl.rep.Result = &core.Result{
						Output:   string(f.Data),
						ExitCode: f.Code,
						Killed:   f.Flags&durable.FlagKilled != 0,
						Reason:   kernel.KillReason(f.Str),
						Cycles:   f.Cycles,
					}
				}
			}
			continue
		}
		// Re-attach: the node survived the director and still holds the
		// live process — ownership was never fenced away, so the fleet
		// resumes without touching a checkpoint.
		var p *kernel.Process
		_, fenced, ok := nd.fence.Owner(name)
		if !s.pending && s.home >= 1 && ok && !fenced {
			if node := nd.Node(s.home); node != nil && !nd.declared[s.home-1] {
				p = node.Owned(name)
			}
		}
		if p != nil {
			pl.proc = p
			pl.home = int(s.home) - 1
			if cfg.CheckpointEvery > 0 {
				pl.nextCkpt = p.CPU.Cycles + uint64(cfg.CheckpointEvery)
			}
			h.rep.Reattached++
			nd.event("%s re-attached on node %d (%d cycles)", name, s.home, p.CPU.Cycles)
			continue
		}
		// Everything else re-places through the ordinary fallback chain
		// — warm from the persistent store whenever the fence admits.
		pl.pending = true
		pl.resumeAt = now
		h.rep.Restored++
	}

	nd.event("standby takeover: term %d, %d records replayed (torn tail: %v)",
		wal.Term(), len(info.Records), info.Torn)
	return nd, nil
}
