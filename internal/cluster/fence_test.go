package cluster

import (
	"errors"
	"testing"

	"asc/internal/ckpt"
	"asc/internal/seal"
)

// TestFenceReplayRejected: once an epoch is admitted to a live node,
// admitting it (or any older epoch) anywhere else is a replay.
func TestFenceReplayRejected(t *testing.T) {
	f := NewFence()
	f.Place("p", 1)
	f.Commit("p", 3, 2) // epoch 3 migrated to node 2

	if err := f.Admit("p", 3, 3); !errors.Is(err, ckpt.ErrEpoch) {
		t.Fatalf("replay to third node: err = %v, want ErrEpoch", err)
	}
	if err := f.Admit("p", 3, 2); !errors.Is(err, ckpt.ErrEpoch) {
		t.Fatalf("replay to same node: err = %v, want ErrEpoch", err)
	}
	if err := f.Admit("p", 2, 1); !errors.Is(err, ckpt.ErrEpoch) {
		t.Fatalf("older epoch with live owner: err = %v, want ErrEpoch", err)
	}
	if got := seal.Reason(f.Admit("p", 3, 3)); got != seal.ReasonEpoch {
		t.Fatalf("reason = %q, want %q", got, seal.ReasonEpoch)
	}
}

// TestFenceForwardProgress: strictly newer epochs are always fresh.
func TestFenceForwardProgress(t *testing.T) {
	f := NewFence()
	if err := f.Admit("p", 1, 1); err != nil {
		t.Fatalf("first admission: %v", err)
	}
	f.Commit("p", 1, 1)
	if err := f.Admit("p", 2, 2); err != nil {
		t.Fatalf("newer epoch: %v", err)
	}
}

// TestFenceCrashRecovery: after the owner is declared down, the fenced
// epoch (and older fallback epochs) become re-admittable — crash
// failover is not replay.
func TestFenceCrashRecovery(t *testing.T) {
	f := NewFence()
	f.Commit("p", 4, 2)
	f.NodeDown(2)
	if err := f.Admit("p", 4, 1); err != nil {
		t.Fatalf("re-admit after owner death: %v", err)
	}
	if err := f.Admit("p", 3, 1); err != nil {
		t.Fatalf("older fallback after owner death: %v", err)
	}
	// Once re-admitted to a live node, the window closes again.
	f.Commit("p", 4, 1)
	if err := f.Admit("p", 4, 3); !errors.Is(err, ckpt.ErrEpoch) {
		t.Fatalf("replay after recovery: err = %v, want ErrEpoch", err)
	}
}

// TestFenceExport: exporting fences the source, so the migration's own
// admission — and recovery if the transfer tears — is legitimate, while
// a second admission after commit is not.
func TestFenceExport(t *testing.T) {
	f := NewFence()
	f.Commit("p", 2, 1) // running at epoch 2 on node 1
	f.ExportFence("p")
	if err := f.Admit("p", 3, 2); err != nil {
		t.Fatalf("migration admission: %v", err)
	}
	f.Commit("p", 3, 2)
	if err := f.Admit("p", 3, 1); !errors.Is(err, ckpt.ErrEpoch) {
		t.Fatalf("bounce-back replay: err = %v, want ErrEpoch", err)
	}
}

// TestFenceNodeDownScopesToOwner: declaring one node down does not
// unfence processes owned elsewhere.
func TestFenceNodeDownScopesToOwner(t *testing.T) {
	f := NewFence()
	f.Commit("a", 1, 1)
	f.Commit("b", 1, 2)
	f.NodeDown(1)
	if err := f.Admit("a", 1, 2); err != nil {
		t.Fatalf("orphaned process: %v", err)
	}
	if err := f.Admit("b", 1, 3); !errors.Is(err, ckpt.ErrEpoch) {
		t.Fatalf("process on the healthy node: err = %v, want ErrEpoch", err)
	}
}
