//go:build race

package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"asc/internal/ckpt"
	"asc/internal/seal"
)

// TestSuperviseCheckpointWithSiblings hammers the checkpoint path under
// the race detector: one supervised process seals checkpoints on a tight
// cadence (and warm-restarts off them) while seven siblings run through
// the worker pool on the same kernel. Checkpointing reads process and
// kernel state that the scheduler also touches; this run must be
// race-clean and must not perturb the siblings' results.
func TestSuperviseCheckpointWithSiblings(t *testing.T) {
	s := newSystem(t, Config{})
	exe, _, _, err := s.Install(buildRaw(t, runAllLoopSrc), "loop")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Exec(exe, "loop", "")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Killed || ref.Output != "done" {
		t.Fatalf("clean reference run failed: %+v", ref)
	}
	budget := ref.Cycles * 4 / 5

	const siblings = 7
	reqs := make([]RunRequest, siblings)
	for i := range reqs {
		reqs[i] = RunRequest{Exe: exe, Name: "sib"}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var stats *SuperviseStats
	var supErr error
	go func() {
		defer wg.Done()
		stats, supErr = s.Supervise(exe, "loop", "", SuperviseConfig{
			MaxRestarts:     8,
			BackoffBase:     100,
			MaxCycles:       budget,
			CheckpointEvery: budget / 8,
		})
	}()
	res, runErr := s.RunAll(reqs, 4)
	wg.Wait()

	if supErr != nil {
		t.Fatalf("Supervise: %v", supErr)
	}
	if runErr != nil {
		t.Fatalf("RunAll: %v", runErr)
	}
	if stats.GaveUp || stats.Final.Output != "done" {
		t.Fatalf("supervised process did not recover: %+v", stats)
	}
	if stats.Checkpoints == 0 || stats.WarmRestarts == 0 {
		t.Errorf("checkpoints=%d warm=%d, want both > 0", stats.Checkpoints, stats.WarmRestarts)
	}
	for i, r := range res {
		if r.Err != nil || r.Killed || r.Output != "done" {
			t.Errorf("sibling %d perturbed: err=%v killed=%v output=%q", i, r.Err, r.Killed, r.Output)
		}
		if r.Cycles != ref.Cycles || r.Verified != ref.Verified {
			t.Errorf("sibling %d diverged from quiet baseline: cycles %d/%d verified %d/%d",
				i, r.Cycles, ref.Cycles, r.Verified, ref.Verified)
		}
	}
}

// TestSuperviseFallbackChainSharedStore exercises the fallback chain
// while other goroutines continuously read the same checkpoint store —
// the shape a fleet director takes when it inspects a process's durable
// chain (NewestEpoch for migration routing, Chain for placement
// decisions) while the supervisor is still appending to it. The newest
// entry is served corrupted, so every warm restart walks the chain
// under concurrent readers. Must be race-clean, and the outcome must
// match the quiet single-goroutine fallback test: recovery from the
// older checkpoint, seal rejections on the tampered one, no cold start.
func TestSuperviseFallbackChainSharedStore(t *testing.T) {
	s := newSystem(t, Config{})
	exe, _, _, err := s.Install(buildRaw(t, runAllLoopSrc), "loop")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Exec(exe, "loop", "")
	if err != nil {
		t.Fatal(err)
	}
	budget := ref.Cycles * 4 / 5

	store := ckpt.NewStore()
	// Tamper must be installed before the store is shared; it serves the
	// newest entry corrupted on every read, forcing chain walks.
	store.Tamper = func(chain []ckpt.Entry, i int) []byte {
		if i != 0 {
			return chain[i].Blob
		}
		mut := append([]byte(nil), chain[i].Blob...)
		mut[len(mut)/2] ^= 0x04
		return mut
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				newest := store.NewestEpoch()
				for _, ent := range store.Chain() {
					if ent.Epoch > newest {
						// Chain is newest-first and NewestEpoch was read
						// before: a later epoch can only have been
						// appended since, never invented.
						_ = store.Len()
						break
					}
				}
			}
		}()
	}

	stats, err := s.Supervise(exe, "loop", "", SuperviseConfig{
		MaxRestarts:     8,
		BackoffBase:     100,
		MaxCycles:       budget,
		CheckpointEvery: budget / 3,
		Checkpoints:     store,
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GaveUp || stats.Final.Output != "done" {
		t.Fatalf("did not recover: %+v", stats)
	}
	if stats.CkptRejected[seal.ReasonSeal] == 0 {
		t.Errorf("rejections = %v, want seal-mismatch", stats.CkptRejected)
	}
	if stats.WarmRestarts < 1 {
		t.Errorf("warm restarts = %d, want >= 1 (fallback to older checkpoint)", stats.WarmRestarts)
	}
	if stats.ColdStarts != 0 {
		t.Errorf("cold starts = %d, want 0 (older checkpoint was intact)", stats.ColdStarts)
	}
}
