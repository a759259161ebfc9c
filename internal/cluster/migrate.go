// migrate.go is the Director's planned-migration path: export a running
// process from its home node, stream the sealed envelope over the
// fabric in bounded chunks, and commit the import on the destination
// through a two-phase handshake (stage: the destination verifies the
// envelope; commit: the fence has admitted the epoch and the kernel
// rebuilds the process through the full Restore pipeline).
//
// The inner checkpoint is persisted to the process's durable store
// *before* the first byte crosses the fabric, and the source is fenced
// at export. Those two facts make every torn outcome safe: whatever
// dies mid-handshake, the newest epoch is durable and its previous
// owner has already given it up, so ordinary failover re-places the
// process warm with zero lost authenticated state.
package cluster

import (
	"encoding/binary"
	"fmt"

	"asc/internal/durable"
	"asc/internal/kernel"
	"asc/internal/seal"
)

// MigrateOpts parameterizes fault injection on a migration. The zero
// value is a clean migration.
type MigrateOpts struct {
	// Divert delivers the envelope to this node instead of the one it
	// is sealed for — the node-spoof experiment. Zero means no divert.
	Divert NodeID
	// Truncate cuts the envelope to this many bytes before transfer
	// (torn write in flight). Zero means intact.
	Truncate int
	// TornAfter, when ≥ 0, abandons the transfer after that many
	// payload chunks (the handshake never completes). -1 disables.
	TornAfter int
	// CrashSrc/CrashDst crash that side at the torn point.
	CrashSrc bool
	CrashDst bool
	// Capture, when non-nil, receives a copy of the sealed envelope —
	// the replay experiment's ammunition.
	Capture *[]byte
	// CrashDirector kills the *director* after the checkpoint is
	// durable, the WAL records the export, and the source is fenced —
	// but before the first byte crosses the fabric. The worst-case
	// control-plane crash window: only a standby replaying the WAL can
	// finish the job.
	CrashDirector bool
}

// CleanMigrate is the MigrateOpts zero value with TornAfter disabled.
func CleanMigrate() MigrateOpts { return MigrateOpts{TornAfter: -1} }

// Migrate moves a running process to node dst through the export →
// transfer → stage → admit → commit handshake. The returned reason is
// "" when the process is running on dst; otherwise it is the canonical
// rejection reason ("node-mismatch", "epoch-replay", "truncated", ...)
// or "" with the process left pending re-placement when the transfer
// itself died (torn handshake, crashed peer). err reports misuse, not
// verdicts.
func (d *Director) Migrate(name string, dst NodeID, opts MigrateOpts) (string, error) {
	pl := d.byName[name]
	if pl == nil {
		return "", fmt.Errorf("cluster: migrate: unknown process %q", name)
	}
	if pl.done || pl.pending || pl.proc == nil {
		return "", fmt.Errorf("cluster: migrate %s: not running", name)
	}
	if d.Node(dst) == nil {
		return "", fmt.Errorf("cluster: migrate %s: no node %d", name, dst)
	}
	src := d.nodes[pl.home]
	epoch := pl.store.NewestEpoch() + 1
	env, inner, err := src.Sys.Kernel.Export(pl.proc, epoch, uint32(src.ID), uint32(dst))
	if err != nil {
		return "", fmt.Errorf("cluster: export %s: %w", name, err)
	}
	// Durability before transfer: a torn handshake must recover warm.
	if err := pl.store.Put(epoch, inner); err != nil {
		return "", fmt.Errorf("cluster: export %s: %w", name, err)
	}
	pl.rep.Checkpoints++
	pl.rep.Migrations++
	if opts.Capture != nil {
		*opts.Capture = append([]byte(nil), env...)
	}
	// Fence the source: epoch `epoch` must never keep running here.
	// The WAL append lands with the fence, before any byte crosses the
	// fabric — the control-plane half of durability-before-transfer.
	d.walAppend(&durable.Record{Kind: durable.KindExportFence, Name: name,
		Node: uint32(src.ID), Node2: uint32(dst), Epoch: epoch})
	d.fence.ExportFence(name)
	src.disown(name)
	pl.lastCyc = pl.proc.CPU.Cycles
	pl.proc = nil
	pl.home = -1
	pl.pending = true
	pl.resumeAt = d.tick + 1
	d.event("%s exporting epoch %d: node %d → %d", name, epoch, src.ID, dst)
	if opts.CrashDirector {
		d.selfCrashed = true
		d.event("director crashed mid-migration of %s", name)
		return "", nil
	}

	target := dst
	if opts.Divert != 0 {
		target = opts.Divert
	}
	blob := env
	if opts.Truncate > 0 && opts.Truncate < len(env) {
		blob = env[:opts.Truncate]
	}
	reason, p, err := d.deliver(blob, target, name, epoch, src, opts)
	if err != nil {
		// Transfer died; pl stays pending and ordinary failover
		// recovers it from the durable store. A torn handshake is a
		// failure the fleet recovered from, so it counts as one.
		pl.failovers++
		pl.rep.Failovers++
		pl.resumeAt = d.tick + d.backoffTicks(pl.failovers)
		d.event("%s migration torn: %v", name, err)
		d.walAppend(&durable.Record{Kind: durable.KindMigTorn, Name: name, Epoch: epoch})
		return "", nil
	}
	if reason != "" {
		pl.reject(reason)
		d.event("%s migration rejected by node %d: %s", name, target, reason)
		return reason, nil
	}
	d.fence.Commit(name, epoch, target)
	d.walAppend(&durable.Record{Kind: durable.KindMigDone, Name: name,
		Node: uint32(target), Epoch: epoch, Cycles: p.CPU.Cycles})
	pl.proc = p
	pl.home = int(target) - 1
	pl.pending = false
	d.nodes[pl.home].own(name, p)
	if d.cfg.CheckpointEvery > 0 {
		pl.nextCkpt = p.CPU.Cycles + uint64(d.cfg.CheckpointEvery)
	}
	d.event("%s migrated to node %d at epoch %d (%d cycles)", name, target, epoch, p.CPU.Cycles)
	return "", nil
}

// Deliver runs the transfer/stage/admit/commit handshake for an
// already-sealed envelope against a chosen node — the attack surface
// for replay (deliver the same captured envelope again) and spoof
// (deliver it to the wrong node) experiments. The returned reason is ""
// only if the destination accepted and imported the state; a non-nil
// error means the transfer itself failed (unreachable node).
//
// A successful Deliver does NOT re-home the Director's placement — the
// legitimate path is Migrate. If a replayed envelope ever gets a ""
// reason here, the fence has failed and the caller should treat it as a
// broken invariant.
func (d *Director) Deliver(env []byte, target NodeID, name string, epoch uint64) (string, error) {
	if d.Node(target) == nil {
		return "", fmt.Errorf("cluster: deliver: no node %d", target)
	}
	reason, _, err := d.deliver(env, target, name, epoch, nil, CleanMigrate())
	return reason, err
}

// deliver streams one envelope to target and runs the handshake.
// Returns the destination's (or the fence's) rejection reason, the
// imported process on success, or an error if the conversation died.
func (d *Director) deliver(env []byte, target NodeID, name string, epoch uint64, src *Node, opts MigrateOpts) (string, *kernel.Process, error) {
	nd := d.Node(target)
	c, err := d.Fabric.Dial(ControlPort(target), nil)
	if err != nil {
		return "", nil, fmt.Errorf("cluster: deliver %s to node %d: %w", name, target, err)
	}
	defer c.Close()

	nchunks := (len(env) + migChunk - 1) / migChunk
	hdr := make([]byte, 0, 20+len(name))
	hdr = append(hdr, msgMigHdr...)
	hdr = binary.LittleEndian.AppendUint64(hdr, epoch)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(env)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(nchunks))
	hdr = append(hdr, name...)
	if err := c.Send(nil, hdr); err != nil {
		return "", nil, err
	}
	nd.serve()
	for i := 0; i < nchunks; i++ {
		if opts.TornAfter >= 0 && i == opts.TornAfter {
			return d.tear(src, target, i, opts)
		}
		lo, hi := i*migChunk, (i+1)*migChunk
		if hi > len(env) {
			hi = len(env)
		}
		if err := c.Send(nil, env[lo:hi]); err != nil {
			return "", nil, err
		}
		// Strict alternation keeps the bounded fabric buffers empty.
		nd.serve()
	}
	if opts.TornAfter >= 0 && nchunks <= opts.TornAfter {
		return d.tear(src, target, nchunks, opts)
	}
	reply, err := c.Recv(nil)
	if err != nil || reply == nil {
		return "", nil, fmt.Errorf("cluster: deliver %s: no staging verdict", name)
	}
	if reason, ok := rejection(reply); ok {
		return reason, nil, nil
	}
	if len(reply) < 12 || string(reply[:4]) != msgStaged ||
		binary.LittleEndian.Uint64(reply[4:]) != epoch || string(reply[12:]) != name {
		return "", nil, fmt.Errorf("cluster: deliver %s: bad staging reply", name)
	}
	// The destination verified the envelope; liveness is the fence's
	// call.
	if err := d.fence.Admit(name, epoch, target); err != nil {
		_ = c.Send(nil, []byte(msgAbort))
		nd.serve()
		return seal.Reason(err), nil, nil
	}
	if err := c.Send(nil, []byte(msgCommit)); err != nil {
		return "", nil, err
	}
	nd.serve()
	reply, err = c.Recv(nil)
	if err != nil || reply == nil {
		return "", nil, fmt.Errorf("cluster: deliver %s: no commit verdict", name)
	}
	if reason, ok := rejection(reply); ok {
		return reason, nil, nil
	}
	if string(reply) != msgDone || nd.adopted == nil {
		return "", nil, fmt.Errorf("cluster: deliver %s: bad commit reply", name)
	}
	p := nd.adopted
	nd.adopted = nil
	return "", p, nil
}

// tear aborts a transfer at the torn point, optionally crashing a side.
func (d *Director) tear(src *Node, target NodeID, chunk int, opts MigrateOpts) (string, *kernel.Process, error) {
	if opts.CrashSrc && src != nil {
		d.CrashNode(src.ID)
	}
	if opts.CrashDst {
		d.CrashNode(target)
	}
	return "", nil, fmt.Errorf("cluster: transfer torn after %d chunks", chunk)
}

// rejection parses a rej0 reply.
func rejection(reply []byte) (string, bool) {
	if len(reply) >= 4 && string(reply[:4]) == msgReject {
		return string(reply[4:]), true
	}
	return "", false
}
