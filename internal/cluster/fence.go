// fence.go holds the cluster's trusted liveness registry. The sealed
// migration envelope proves *what* a blob is (a genuine checkpoint of
// this program at this epoch, addressed to this node); it cannot prove
// the blob is still *allowed to run* — the same genuine envelope
// delivered twice verifies twice. That decision needs state held
// outside every blob, exactly like ckpt.Store keeping trusted epochs
// outside checkpoints: the Fence records, per process, the highest
// epoch ever admitted to run and which node currently owns the right to
// run it.
//
// Admission rule: an epoch that advances the floor is always fresh
// (each export/checkpoint mints a strictly newer epoch, so forward
// progress is unambiguous). An epoch at or below the floor was already
// admitted somewhere — it may run again only if the recorded owner has
// provably given the process up: the node was declared dead, or fenced
// itself by exporting. That one rule separates the legitimate cases
// (crash failover re-admits the newest durable epoch; fallback walks to
// older epochs after the owner died) from the attacks (the same
// envelope replayed at a second live node would fork the process into
// two futures).
package cluster

import (
	"fmt"

	"asc/internal/ckpt"
)

// Fence is the trusted control-plane registry deciding whether a sealed
// epoch may start running on a node. It is control-plane state owned by
// the Director, single-goroutine like the rest of the cluster model.
type Fence struct {
	entries map[string]*fenceEntry
}

type fenceEntry struct {
	floor  uint64 // highest epoch ever admitted to run
	admits int    // sealed-state admissions recorded (floor is meaningless at 0)
	owner  NodeID // node currently holding the right to run the process
	fenced bool   // owner exported or was declared dead: right released
	placed bool
}

// NewFence returns an empty registry.
func NewFence() *Fence { return &Fence{entries: make(map[string]*fenceEntry)} }

func (f *Fence) ent(name string) *fenceEntry {
	e := f.entries[name]
	if e == nil {
		e = &fenceEntry{}
		f.entries[name] = e
	}
	return e
}

// Place records a cold placement: node owns the process from fresh
// state. No sealed epoch is involved, so the floor is untouched.
func (f *Fence) Place(name string, node NodeID) {
	e := f.ent(name)
	e.owner = node
	e.fenced = false
	e.placed = true
}

// ExportFence marks the owner as having exported the process: whatever
// epoch it was running must not keep running there, and a subsequent
// re-admission (the migration itself, or recovery if the transfer
// tears) is legitimate.
func (f *Fence) ExportFence(name string) {
	if e := f.entries[name]; e != nil {
		e.fenced = true
	}
}

// NodeDown fences every process owned by a node that has been declared
// failed. The declaration is the failure detector's (heartbeats), not
// ground truth — fencing on a false suspicion is safe for integrity
// (the suspected node's epochs simply become re-admittable elsewhere);
// only the detector's threshold protects against needless failovers.
func (f *Fence) NodeDown(node NodeID) {
	for _, e := range f.entries {
		if e.placed && e.owner == node {
			e.fenced = true
		}
	}
}

// Admit decides whether sealed epoch `epoch` of process `name` may
// start running on node dst. The returned error wraps ckpt.ErrEpoch so
// callers classify it with seal.Reason (→ "epoch-replay").
func (f *Fence) Admit(name string, epoch uint64, dst NodeID) error {
	e := f.entries[name]
	if e == nil || e.admits == 0 || epoch > e.floor {
		return nil // fresh forward progress
	}
	if e.fenced {
		return nil // previous owner gave the process up: re-admission
	}
	return fmt.Errorf("cluster: %s: %w: epoch %d already admitted to node %d (floor %d)",
		name, ckpt.ErrEpoch, epoch, e.owner, e.floor)
}

// Commit records that sealed epoch `epoch` is now running on node dst.
// Callers must have Admitted first.
func (f *Fence) Commit(name string, epoch uint64, dst NodeID) {
	e := f.ent(name)
	if epoch > e.floor {
		e.floor = epoch
	}
	e.admits++
	e.owner = dst
	e.fenced = false
	e.placed = true
}

// Owner reports which node currently owns the process, and whether that
// right is fenced.
func (f *Fence) Owner(name string) (node NodeID, fenced, ok bool) {
	e := f.entries[name]
	if e == nil || !e.placed {
		return 0, false, false
	}
	return e.owner, e.fenced, true
}
