// director.go is the cluster's control plane: placement, failure
// detection, failover, and planned migration. The Director is the
// trusted coordinator (in the paper's terms it lives with the
// installer and the kernels, inside the TCB); what it does NOT get to
// skip is verification — every blob it moves is re-verified by the
// receiving kernel, and every admission passes the Fence.
package cluster

import (
	"errors"
	"fmt"

	"asc/internal/binfmt"
	"asc/internal/ckpt"
	"asc/internal/core"
	"asc/internal/durable"
	"asc/internal/installer"
	"asc/internal/kernel"
	anet "asc/internal/net"
	"asc/internal/policy"
	"asc/internal/seal"
	"asc/internal/vfs"
	"asc/internal/vm"
	"encoding/binary"
)

// ErrNoNodes reports that a process could not be re-placed because no
// node answers heartbeats anymore.
var ErrNoNodes = errors.New("cluster: no live nodes remain")

// Config parameterizes a Director.
type Config struct {
	// Nodes is the cluster width (required, ≥ 1).
	Nodes int
	// Key is the MAC key shared by the installer and every node's
	// kernel (required).
	Key []byte
	// Enforcement selects each kernel's reaction to violations.
	Enforcement kernel.Enforcement
	// KernelOptions are appended to every node kernel's construction.
	KernelOptions []kernel.Option
	// SliceCycles is how many virtual cycles each live process advances
	// per tick (default 4096).
	SliceCycles uint64
	// CheckpointEvery seals a checkpoint into the process's durable
	// store each time it advances that many cycles (default 4 slices;
	// negative disables checkpointing).
	CheckpointEvery int64
	// HeartbeatEvery is the control-plane cadence in ticks (default 1).
	HeartbeatEvery int
	// MissThreshold is how many consecutive missed heartbeats declare a
	// node failed (default 3).
	MissThreshold int
	// MaxCycles is the per-process execution budget (default 4e9).
	MaxCycles uint64
	// BackoffBase/BackoffCap bound the re-placement backoff in ticks: a
	// process's k-th failover waits Base·2^(k-1) ticks, capped (defaults
	// 1 and 8).
	BackoffBase int
	BackoffCap  int
	// MaxTicks bounds the virtual clock (default 1<<20); exceeding it
	// fails the remaining placements rather than spinning forever.
	MaxTicks int
	// DurableDir, when non-empty, makes the control plane durable: the
	// director writes a sealed WAL of every decision under this
	// directory of the cluster's shared filesystem, and per-process
	// checkpoint stores persist there instead of in memory — the state
	// a standby needs to take over. Empty keeps the in-memory control
	// plane.
	DurableDir string
	// KeepEpochs prunes each process's checkpoint store to this many
	// newest epochs at checkpoint cadence (default 8; negative
	// disables pruning).
	KeepEpochs int
	// OnTick, when non-nil, runs at the start of every tick — the hook
	// fault campaigns and benchmarks use to crash nodes, delay
	// heartbeats, or launch migrations at chosen virtual times.
	OnTick func(d *Director, tick int)
}

// Event is one timestamped control-plane occurrence.
type Event struct {
	Tick int
	What string
}

// ProcReport is one process's outcome and recovery accounting.
type ProcReport struct {
	Name   string
	Node   NodeID // final home (0 if never re-placed after losing one)
	Result *core.Result
	Err    error

	Failovers        int // times the process lost its node
	Migrations       int // planned migration attempts
	WarmRestarts     int // re-placements resumed from a verified checkpoint
	ColdStarts       int // re-placements that fell through the whole chain
	Checkpoints      int
	CheckpointErrors int
	ReplayCycles     uint64         // cycles re-executed after recoveries
	RestoredCycles   uint64         // cycles resumed from verified checkpoints at failover
	Rejected         map[string]int // admission/restore rejections by reason
}

// FleetReport summarizes a Director.Run.
type FleetReport struct {
	Procs       []ProcReport
	Ticks       int
	Beats       int
	MissedBeats int
	NodesDown   []NodeID // nodes declared failed, in declaration order
	Events      []Event
}

// Store is the checkpoint-store contract a placement needs: trusted
// epochs outside the blobs, a newest-first fallback chain, and bounded
// growth. ckpt.Store (in-memory) and durable.Store (VFS-backed,
// restart-surviving) both satisfy it.
type Store interface {
	Put(epoch uint64, blob []byte) error
	NewestEpoch() uint64
	Len() int
	Chain() []ckpt.Entry
	Prune(keep int) int
}

// placement is the Director's bookkeeping for one fleet process.
type placement struct {
	name  string
	exe   *binfmt.File
	stdin string

	home     int // node index; -1 while homeless
	proc     *kernel.Process
	store    Store // durable, survives any node
	nextCkpt uint64
	deadline uint64

	done      bool
	pending   bool // waiting for re-placement
	resumeAt  int  // tick the next re-placement attempt may run
	lastCyc   uint64
	failovers int

	rep ProcReport
}

func (pl *placement) reject(reason string) {
	if pl.rep.Rejected == nil {
		pl.rep.Rejected = map[string]int{}
	}
	pl.rep.Rejected[reason]++
}

// Director owns a fleet of nodes and drives fleets of processes across
// them on a deterministic virtual clock.
type Director struct {
	cfg    Config
	FS     *vfs.FS
	Fabric *anet.Network

	nodes []*Node // index i holds NodeID i+1
	fence *Fence
	exes  map[string]*binfmt.File

	placements []*placement
	byName     map[string]*placement

	declared []bool // failure detector's verdicts
	misses   []int
	beatSeq  uint64
	tick     int

	// wal is the sealed decision log (nil without Config.DurableDir).
	wal *durable.Log
	// selfCrashed marks the director dead (fault injection); a dead
	// director stops stepping — an HA harness hands over to a standby.
	selfCrashed bool

	rep *FleetReport
}

// New builds the cluster: a shared durable filesystem, one fabric, and
// cfg.Nodes kernel nodes with bound control ports.
func New(cfg Config) (*Director, error) {
	if cfg.Nodes < 1 {
		return nil, errors.New("cluster: need at least one node")
	}
	if len(cfg.Key) == 0 {
		return nil, errors.New("cluster: a MAC key is required")
	}
	if cfg.SliceCycles == 0 {
		cfg.SliceCycles = 4096
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = int64(4 * cfg.SliceCycles)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 1
	}
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = 3
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 4_000_000_000
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 1
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 8
	}
	if cfg.MaxTicks <= 0 {
		cfg.MaxTicks = 1 << 20
	}
	if cfg.KeepEpochs == 0 {
		cfg.KeepEpochs = 8
	}
	d := &Director{
		cfg:      cfg,
		FS:       vfs.New(),
		Fabric:   anet.New(),
		fence:    NewFence(),
		exes:     make(map[string]*binfmt.File),
		byName:   make(map[string]*placement),
		declared: make([]bool, cfg.Nodes),
		misses:   make([]int, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		nd, err := NewNode(NodeID(i+1), d.FS, d.Fabric, cfg.Key, cfg.Enforcement, cfg.KernelOptions...)
		if err != nil {
			return nil, err
		}
		nd.resolve = func(name string) (*binfmt.File, bool) {
			exe, ok := d.exes[name]
			return exe, ok
		}
		d.nodes = append(d.nodes, nd)
	}
	if cfg.DurableDir != "" {
		wal, err := durable.Create(d.FS, cfg.DurableDir, cfg.Key)
		if err != nil {
			return nil, err
		}
		d.wal = wal
	}
	return d, nil
}

// Node returns the node with the given ID (nil if out of range).
func (d *Director) Node(id NodeID) *Node {
	if id < 1 || int(id) > len(d.nodes) {
		return nil
	}
	return d.nodes[id-1]
}

// Install runs the trusted installer once (the shared filesystem makes
// the result visible to every node) and registers the authenticated
// binary for import resolution under the given name.
func (d *Director) Install(exe *binfmt.File, name string) (*binfmt.File, *policy.ProgramPolicy, *installer.Report, error) {
	out, pp, rep, err := d.nodes[0].Sys.Install(exe, name)
	if err != nil {
		return nil, nil, nil, err
	}
	d.exes[name] = out
	return out, pp, rep, nil
}

// CrashNode kills a node's machine. Ground-truth injection for faults
// and benchmarks; the Director's detector still has to notice via
// heartbeats.
func (d *Director) CrashNode(id NodeID) {
	if nd := d.Node(id); nd != nil {
		nd.Crash()
		d.event("node %d crashed", id)
	}
}

// DelayHeartbeats makes a node miss its next n heartbeats while healthy.
func (d *Director) DelayHeartbeats(id NodeID, n int) {
	if nd := d.Node(id); nd != nil {
		nd.DelayHeartbeats(n)
	}
}

// Report returns the in-progress fleet report (valid during OnTick).
func (d *Director) Report() *FleetReport { return d.rep }

// Epoch reports the newest durable checkpoint epoch of a fleet process
// (zero if the process is unknown or has no checkpoints) — what a
// replay experiment needs to know about its captured envelope.
func (d *Director) Epoch(name string) uint64 {
	if pl := d.byName[name]; pl != nil {
		return pl.store.NewestEpoch()
	}
	return 0
}

func (d *Director) event(format string, args ...any) {
	if d.rep != nil {
		d.rep.Events = append(d.rep.Events, Event{Tick: d.tick, What: fmt.Sprintf(format, args...)})
	}
}

// Run places the requested processes round-robin across the nodes and
// drives the fleet on the virtual clock until every process finishes
// (or can no longer be placed). Results are index-aligned with reqs.
func (d *Director) Run(reqs []core.RunRequest) (*FleetReport, error) {
	if err := d.place(reqs); err != nil {
		return nil, err
	}
	for !d.allDone() {
		if d.stepTick() {
			break
		}
	}
	return d.seal(), nil
}

// place creates the initial placements. Split from the tick loop so an
// HA harness can drive stepTick itself (and hand the clock to a standby
// after a director crash).
func (d *Director) place(reqs []core.RunRequest) error {
	if len(d.placements) > 0 {
		return errors.New("cluster: Director.Run may only be called once")
	}
	if len(reqs) == 0 {
		return errors.New("cluster: empty fleet")
	}
	d.rep = &FleetReport{}
	for i, r := range reqs {
		if _, dup := d.byName[r.Name]; dup {
			return fmt.Errorf("cluster: duplicate process name %q", r.Name)
		}
		home := i % len(d.nodes)
		nd := d.nodes[home]
		p, err := nd.Sys.Kernel.Spawn(r.Exe, r.Name)
		if err != nil {
			return fmt.Errorf("cluster: spawn %s: %w", r.Name, err)
		}
		p.Stdin = []byte(r.Stdin)
		max := r.MaxCycles
		if max == 0 {
			max = d.cfg.MaxCycles
		}
		store, err := d.newStore(r.Name)
		if err != nil {
			return err
		}
		pl := &placement{
			name:     r.Name,
			exe:      r.Exe,
			stdin:    r.Stdin,
			home:     home,
			proc:     p,
			store:    store,
			deadline: max,
			rep:      ProcReport{Name: r.Name},
		}
		if d.cfg.CheckpointEvery > 0 {
			pl.nextCkpt = uint64(d.cfg.CheckpointEvery)
		}
		d.exes[r.Name] = r.Exe
		d.placements = append(d.placements, pl)
		d.byName[r.Name] = pl
		d.fence.Place(r.Name, nd.ID)
		nd.own(r.Name, p)
		d.walAppend(&durable.Record{Kind: durable.KindPlace, Name: r.Name,
			Node: uint32(nd.ID), Cycles: max, Data: []byte(r.Stdin)})
	}
	return nil
}

// newStore builds a placement's checkpoint store: persistent under
// DurableDir, in-memory otherwise.
func (d *Director) newStore(name string) (Store, error) {
	if d.cfg.DurableDir == "" {
		return ckpt.NewStore(), nil
	}
	return durable.OpenStore(d.FS, durable.StoreDir(d.cfg.DurableDir, name))
}

// walAppend writes one decision record (no-op without a WAL). The
// append happening *before* the decision's external effect is the
// control-plane durability invariant: whatever the director does next,
// a standby replaying the log knows it was decided.
func (d *Director) walAppend(r *durable.Record) {
	if d.wal == nil {
		return
	}
	r.Tick = uint64(d.tick)
	if err := d.wal.Append(r); err != nil {
		d.event("wal append %s: %v", r.Kind, err)
	}
}

// stepTick advances the fleet by one virtual tick; true means the
// virtual clock is exhausted and the run must stop.
func (d *Director) stepTick() bool {
	if d.tick >= d.cfg.MaxTicks {
		for _, pl := range d.placements {
			if !pl.done {
				d.finish(pl, fmt.Errorf("cluster: %s: virtual clock exhausted at tick %d", pl.name, d.tick))
			}
		}
		return true
	}
	if d.cfg.OnTick != nil {
		d.cfg.OnTick(d, d.tick)
	}
	if d.selfCrashed {
		return true
	}
	// Data plane: every live process advances one slice, ordered by
	// node then placement for determinism.
	for ni, nd := range d.nodes {
		if nd.crashed || d.declared[ni] {
			continue
		}
		for _, pl := range d.placements {
			if pl.home == ni && !pl.done && !pl.pending {
				d.runSlice(pl, nd)
			}
		}
	}
	// Re-placements whose backoff expired.
	for _, pl := range d.placements {
		if pl.pending && !pl.done && d.tick >= pl.resumeAt {
			d.replace(pl)
		}
	}
	// Control plane: heartbeat round, plus the director's own liveness
	// record — the standby's takeover signal.
	if d.tick%d.cfg.HeartbeatEvery == 0 {
		d.heartbeatRound()
		d.walAppend(&durable.Record{Kind: durable.KindBeat})
	}
	d.tick++
	return false
}

// seal closes the fleet report.
func (d *Director) seal() *FleetReport {
	d.rep.Ticks = d.tick
	d.rep.Procs = make([]ProcReport, len(d.placements))
	for i, pl := range d.placements {
		d.rep.Procs[i] = pl.rep
	}
	return d.rep
}

func (d *Director) allDone() bool {
	for _, pl := range d.placements {
		if !pl.done {
			return false
		}
	}
	return len(d.placements) > 0
}

// finish closes out a placement with its final result.
func (d *Director) finish(pl *placement, err error) {
	pl.done = true
	pl.pending = false
	pl.rep.Err = err
	if pl.home >= 0 {
		pl.rep.Node = NodeID(pl.home + 1)
		d.nodes[pl.home].disown(pl.name)
	}
	if p := pl.proc; p != nil {
		pl.rep.Result = &core.Result{
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
	rec := &durable.Record{Kind: durable.KindFinish, Name: pl.name, Node: uint32(pl.rep.Node)}
	if r := pl.rep.Result; r != nil {
		rec.Code = uint32(r.ExitCode)
		rec.Cycles = r.Cycles
		rec.Str = string(r.Reason)
		rec.Data = []byte(r.Output)
		if r.Killed {
			rec.Flags |= durable.FlagKilled
		}
	}
	if err != nil {
		rec.Flags |= durable.FlagErr
		rec.Str = err.Error()
	}
	d.walAppend(rec)
}

// runSlice advances one process by one tick's slice on its home node,
// sealing checkpoints at cadence boundaries — the per-slice mirror of
// the supervisor's drive loop.
func (d *Director) runSlice(pl *placement, nd *Node) {
	p := pl.proc
	sliceEnd := p.CPU.Cycles + d.cfg.SliceCycles
	for !pl.done && p.CPU.Cycles < sliceEnd {
		limit := sliceEnd
		if pl.deadline < limit {
			limit = pl.deadline
		}
		if pl.nextCkpt > 0 && pl.nextCkpt < limit {
			limit = pl.nextCkpt
		}
		runErr := nd.Sys.Kernel.Run(p, limit)
		switch {
		case runErr == nil:
			d.finish(pl, nil)
			d.event("%s finished on node %d", pl.name, nd.ID)
		case errors.Is(runErr, vm.ErrCycleLimit):
			if p.CPU.Cycles >= pl.deadline {
				d.finish(pl, fmt.Errorf("cluster: %s: %w", pl.name, runErr))
				return
			}
			if pl.nextCkpt > 0 && p.CPU.Cycles >= pl.nextCkpt {
				d.checkpoint(pl, nd)
				for pl.nextCkpt <= p.CPU.Cycles {
					pl.nextCkpt += uint64(d.cfg.CheckpointEvery)
				}
			}
		default:
			d.finish(pl, fmt.Errorf("cluster: %s: %w", pl.name, runErr))
			return
		}
	}
}

// checkpoint seals the live process into its durable store under the
// next epoch. Failure is non-fatal: the chain just misses one link.
func (d *Director) checkpoint(pl *placement, nd *Node) {
	epoch := pl.store.NewestEpoch() + 1
	blob, err := nd.Sys.Kernel.Checkpoint(pl.proc, epoch)
	if err != nil {
		pl.rep.CheckpointErrors++
		return
	}
	if err := pl.store.Put(epoch, blob); err != nil {
		pl.rep.CheckpointErrors++
		return
	}
	pl.rep.Checkpoints++
	if d.cfg.KeepEpochs > 0 {
		pl.store.Prune(d.cfg.KeepEpochs)
	}
	d.walAppend(&durable.Record{Kind: durable.KindCheckpoint, Name: pl.name,
		Node: uint32(nd.ID), Epoch: epoch})
}

// heartbeatRound pings every not-yet-declared node and applies the
// missed-beat threshold.
func (d *Director) heartbeatRound() {
	for ni := range d.nodes {
		if d.declared[ni] {
			continue
		}
		d.rep.Beats++
		if d.beat(ni) {
			d.misses[ni] = 0
			continue
		}
		d.rep.MissedBeats++
		d.misses[ni]++
		if d.misses[ni] >= d.cfg.MissThreshold {
			d.declareDown(ni)
		}
	}
}

// beat runs one ping/pong exchange with a node over the fabric. False
// means the beat was missed: connection refused (listener gone), no
// reply pending after the node's control plane was pumped (delayed), or
// a malformed/misattributed reply.
func (d *Director) beat(ni int) bool {
	nd := d.nodes[ni]
	d.beatSeq++
	c, err := d.Fabric.Dial(ControlPort(nd.ID), nil)
	if err != nil {
		return false
	}
	defer c.Close()
	msg := make([]byte, 0, 12)
	msg = append(msg, msgPing...)
	msg = binary.LittleEndian.AppendUint64(msg, d.beatSeq)
	if c.Send(nil, msg) != nil {
		return false
	}
	nd.serve()
	reply, err := c.Recv(nil)
	if err != nil || len(reply) != 16 || string(reply[:4]) != msgPong {
		return false
	}
	return binary.LittleEndian.Uint64(reply[4:]) == d.beatSeq &&
		binary.LittleEndian.Uint32(reply[12:]) == uint32(nd.ID)
}

// declareDown records the failure detector's verdict: fence the node's
// processes and schedule their re-placement with per-process backoff.
func (d *Director) declareDown(ni int) {
	d.declared[ni] = true
	id := d.nodes[ni].ID
	d.fence.NodeDown(id)
	d.rep.NodesDown = append(d.rep.NodesDown, id)
	d.event("node %d declared failed (%d missed beats)", id, d.misses[ni])
	d.walAppend(&durable.Record{Kind: durable.KindNodeDown, Node: uint32(id)})
	for _, pl := range d.placements {
		if pl.home == ni && !pl.done {
			d.scheduleFailover(pl, "node failure")
		}
	}
}

// scheduleFailover marks a placement homeless and sets its backoff.
func (d *Director) scheduleFailover(pl *placement, why string) {
	if pl.proc != nil {
		pl.lastCyc = pl.proc.CPU.Cycles
	}
	if pl.home >= 0 {
		d.nodes[pl.home].disown(pl.name)
	}
	pl.home = -1
	pl.proc = nil
	pl.pending = true
	pl.failovers++
	pl.rep.Failovers++
	back := d.backoffTicks(pl.failovers)
	pl.resumeAt = d.tick + back
	d.event("%s failover %d (%s): re-place after %d ticks", pl.name, pl.failovers, why, back)
	d.walAppend(&durable.Record{Kind: durable.KindFailover, Name: pl.name, Str: why})
}

func (d *Director) backoffTicks(n int) int {
	b := d.cfg.BackoffBase
	for i := 1; i < n; i++ {
		b *= 2
		if b >= d.cfg.BackoffCap {
			return d.cfg.BackoffCap
		}
	}
	return b
}

// replace re-homes a homeless process on the least-loaded node the
// detector still trusts, restoring the newest admissible checkpoint and
// falling back through the chain to a cold start — the cross-node form
// of the supervisor's fallback chain.
func (d *Director) replace(pl *placement) {
	target := -1
	best := int(^uint(0) >> 1)
	for ni := range d.nodes {
		if d.declared[ni] {
			continue
		}
		load := 0
		for _, other := range d.placements {
			if other.home == ni && !other.done {
				load++
			}
		}
		if load < best {
			best = load
			target = ni
		}
	}
	if target == -1 {
		d.finish(pl, fmt.Errorf("cluster: %s: %w", pl.name, ErrNoNodes))
		d.event("%s lost: no live nodes", pl.name)
		return
	}
	// Probe the target before handing it work: a node that crashed
	// since its last heartbeat cannot receive a process. The miss also
	// feeds the detector.
	d.rep.Beats++
	if !d.beat(target) {
		d.rep.MissedBeats++
		d.misses[target]++
		if d.misses[target] >= d.cfg.MissThreshold {
			d.declareDown(target)
		}
		pl.resumeAt = d.tick + 1
		return
	}
	d.misses[target] = 0
	nd := d.nodes[target]
	var p *kernel.Process
	warm := false
	var warmEpoch uint64
	for _, ent := range pl.store.Chain() {
		if err := d.fence.Admit(pl.name, ent.Epoch, nd.ID); err != nil {
			pl.reject(seal.Reason(err))
			continue
		}
		r, err := nd.Sys.Kernel.Restore(pl.exe, pl.name, ent.Blob, ent.Epoch)
		if err != nil {
			pl.reject(seal.Reason(err))
			continue
		}
		p = r
		warm = true
		warmEpoch = ent.Epoch
		break
	}
	if p == nil {
		r, err := nd.Sys.Kernel.Spawn(pl.exe, pl.name)
		if err != nil {
			d.finish(pl, fmt.Errorf("cluster: respawn %s: %w", pl.name, err))
			return
		}
		r.Stdin = []byte(pl.stdin)
		p = r
		pl.rep.ColdStarts++
	}
	if warm {
		pl.rep.WarmRestarts++
		pl.rep.RestoredCycles += p.CPU.Cycles
		d.fence.Commit(pl.name, warmEpoch, nd.ID)
		d.walAppend(&durable.Record{Kind: durable.KindRestore, Name: pl.name,
			Node: uint32(nd.ID), Epoch: warmEpoch, Cycles: p.CPU.Cycles})
	} else {
		d.fence.Place(pl.name, nd.ID)
		d.walAppend(&durable.Record{Kind: durable.KindColdStart, Name: pl.name,
			Node: uint32(nd.ID), Cycles: pl.deadline, Data: []byte(pl.stdin)})
	}
	if pl.lastCyc > p.CPU.Cycles {
		pl.rep.ReplayCycles += pl.lastCyc - p.CPU.Cycles
	}
	pl.proc = p
	pl.home = target
	pl.pending = false
	nd.own(pl.name, p)
	if d.cfg.CheckpointEvery > 0 {
		pl.nextCkpt = p.CPU.Cycles + uint64(d.cfg.CheckpointEvery)
	}
	kind := "cold"
	if warm {
		kind = fmt.Sprintf("warm from epoch %d", warmEpoch)
	}
	d.event("%s re-placed on node %d (%s, %d cycles)", pl.name, nd.ID, kind, p.CPU.Cycles)
}
