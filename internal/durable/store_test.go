package durable

import (
	"errors"
	"fmt"
	"testing"

	"asc/internal/ckpt"
	"asc/internal/vfs"
)

func newStore(t *testing.T) (*vfs.FS, *Store) {
	t.Helper()
	fs := vfs.New()
	s, err := OpenStore(fs, StoreDir("/director", "p0"))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return fs, s
}

func TestStoreSurvivesReopen(t *testing.T) {
	fs, s := newStore(t)
	for i := 1; i <= 4; i++ {
		if err := s.Put(uint64(i), []byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	// A fresh handle over the same directory — the takeover path — sees
	// the same chain.
	s2, err := OpenStore(fs, StoreDir("/director", "p0"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Len() != 4 || s2.NewestEpoch() != 4 {
		t.Fatalf("reopen: len=%d newest=%d, want 4/4", s2.Len(), s2.NewestEpoch())
	}
	chain := s2.Chain()
	if len(chain) != 4 || chain[0].Epoch != 4 || string(chain[0].Blob) != "blob-4" {
		t.Fatalf("chain after reopen: %+v", chain)
	}
	// Epoch ordering is enforced across handles.
	if err := s2.Put(3, []byte("stale")); !errors.Is(err, ckpt.ErrEpochOrder) {
		t.Fatalf("stale Put: %v, want ErrEpochOrder", err)
	}
}

func TestStorePrune(t *testing.T) {
	_, s := newStore(t)
	for i := 1; i <= 6; i++ {
		if err := s.Put(uint64(i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if got := s.Prune(2); got != 4 {
		t.Fatalf("Prune(2) dropped %d, want 4", got)
	}
	if s.Len() != 2 || s.NewestEpoch() != 6 {
		t.Fatalf("after prune: len=%d newest=%d", s.Len(), s.NewestEpoch())
	}
	if got := s.Prune(10); got != 0 {
		t.Fatalf("Prune(10) dropped %d, want 0", got)
	}
	if got := s.Prune(0); got != 2 {
		t.Fatalf("Prune(0) dropped %d, want 2", got)
	}
}

func TestStoreTamperHook(t *testing.T) {
	_, s := newStore(t)
	for i := 1; i <= 3; i++ {
		if err := s.Put(uint64(i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	s.Tamper = func(chain []ckpt.Entry, i int) []byte {
		if i == 0 {
			return []byte{0xff}
		}
		return chain[i].Blob
	}
	chain := s.Chain()
	if chain[0].Blob[0] != 0xff || chain[1].Blob[0] != 2 {
		t.Fatalf("tamper hook: %+v", chain)
	}
	// The stored files are untouched.
	s.Tamper = nil
	if chain := s.Chain(); chain[0].Blob[0] != 3 {
		t.Fatalf("pristine chain after hook removal: %+v", chain)
	}
}
