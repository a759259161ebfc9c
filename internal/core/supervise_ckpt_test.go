package core

import (
	"testing"

	"asc/internal/ckpt"
	"asc/internal/kernel"
	"asc/internal/seal"
)

// TestSuperviseCheckpointWarmRestart: a process that overruns its budget
// is restarted from the newest sealed checkpoint, replays at most one
// cadence interval, and finishes with the clean run's output.
func TestSuperviseCheckpointWarmRestart(t *testing.T) {
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
	every := budget / 3
	stats, err := s.Supervise(exe, "loop", "", SuperviseConfig{
		MaxRestarts:     8,
		BackoffBase:     100,
		MaxCycles:       budget,
		CheckpointEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GaveUp {
		t.Fatalf("supervisor gave up: %+v", stats)
	}
	if stats.Final.Killed || stats.Final.Output != "done" {
		t.Errorf("final result: %+v, want clean 'done'", stats.Final)
	}
	if stats.Causes["runaway"] == 0 {
		t.Errorf("causes = %v, want at least one runaway", stats.Causes)
	}
	if stats.Checkpoints < 2 {
		t.Errorf("checkpoints = %d, want >= 2", stats.Checkpoints)
	}
	if stats.WarmRestarts < 1 {
		t.Errorf("warm restarts = %d, want >= 1", stats.WarmRestarts)
	}
	if stats.ColdStarts != 0 {
		t.Errorf("cold starts = %d on an untampered chain", stats.ColdStarts)
	}
	if len(stats.CkptRejected) != 0 {
		t.Errorf("rejections on an untampered chain: %v", stats.CkptRejected)
	}
	// The replay bound: each warm restart re-executes at most the cycles
	// since the last checkpoint — one cadence interval plus the trap
	// overshoot slack.
	const slack = 8192
	if max := uint64(stats.WarmRestarts) * (every + slack); stats.ReplayCycles > max {
		t.Errorf("replayed %d cycles, bound %d", stats.ReplayCycles, max)
	}
	if stats.ReplayCycles == 0 {
		t.Error("warm restart replayed nothing — restore point implausibly at the failure point")
	}
}

// TestSuperviseCheckpointFallbackChain: a corrupted newest checkpoint is
// rejected by its seal and the restart falls back to the older one.
func TestSuperviseCheckpointFallbackChain(t *testing.T) {
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
	store.Tamper = func(chain []ckpt.Entry, i int) []byte {
		if i != 0 {
			return chain[i].Blob
		}
		mut := append([]byte(nil), chain[i].Blob...)
		mut[len(mut)/2] ^= 0x04
		return mut
	}
	stats, err := s.Supervise(exe, "loop", "", SuperviseConfig{
		MaxRestarts:     8,
		BackoffBase:     100,
		MaxCycles:       budget,
		CheckpointEvery: budget / 3,
		Checkpoints:     store,
	})
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

// TestSuperviseCheckpointColdStart: when every checkpoint in the chain
// is corrupt, restarts reject them all and fall through to cold starts —
// corruption costs progress, never integrity.
func TestSuperviseCheckpointColdStart(t *testing.T) {
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
	store.Tamper = func(chain []ckpt.Entry, i int) []byte {
		mut := append([]byte(nil), chain[i].Blob...)
		mut[len(mut)/3] ^= 0x80
		return mut
	}
	stats, err := s.Supervise(exe, "loop", "", SuperviseConfig{
		MaxRestarts:     2,
		BackoffBase:     100,
		MaxCycles:       budget,
		CheckpointEvery: budget / 3,
		Checkpoints:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cold starts never get past the budget, so the supervisor exhausts
	// its restarts — but every restart rejected the whole chain first.
	if !stats.GaveUp {
		t.Fatalf("expected exhaustion under an all-corrupt chain: %+v", stats)
	}
	if stats.WarmRestarts != 0 {
		t.Errorf("warm restarts = %d from corrupt blobs", stats.WarmRestarts)
	}
	if stats.ColdStarts != 2 {
		t.Errorf("cold starts = %d, want 2", stats.ColdStarts)
	}
	if stats.CkptRejected[seal.ReasonSeal] < 2 {
		t.Errorf("rejections = %v, want every chain walk to reject", stats.CkptRejected)
	}
}

// TestSuperviseNoRestarts: the NoRestarts sentinel runs the process
// exactly once, while the zero value selects the documented default of
// three restarts.
func TestSuperviseNoRestarts(t *testing.T) {
	s := newSystem(t, Config{})
	exe, _, _, err := s.Install(buildRaw(t, superviseKilledSrc), "bad")
	if err != nil {
		t.Fatal(err)
	}

	once, err := s.Supervise(exe, "bad", "", SuperviseConfig{MaxRestarts: NoRestarts})
	if err != nil {
		t.Fatal(err)
	}
	if once.Attempts != 1 || once.Restarts != 0 || !once.GaveUp {
		t.Errorf("NoRestarts: attempts=%d restarts=%d gaveUp=%v, want 1/0/true",
			once.Attempts, once.Restarts, once.GaveUp)
	}

	def, err := s.Supervise(exe, "bad", "", SuperviseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Attempts != 4 || def.Restarts != 3 {
		t.Errorf("zero value: attempts=%d restarts=%d, want 4/3 (default)",
			def.Attempts, def.Restarts)
	}
}

// TestSuperviseBackoffOddCap: a cap that is not a power-of-two multiple
// of the base is hit exactly, not overshot.
func TestSuperviseBackoffOddCap(t *testing.T) {
	s := newSystem(t, Config{})
	exe, _, _, err := s.Install(buildRaw(t, superviseKilledSrc), "bad")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Supervise(exe, "bad", "", SuperviseConfig{
		MaxRestarts: 4,
		BackoffBase: 100,
		BackoffCap:  250,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 200, 250, 250}
	if len(stats.Events) != len(want) {
		t.Fatalf("events = %+v, want %d", stats.Events, len(want))
	}
	for i, ev := range stats.Events {
		if ev.Backoff != want[i] {
			t.Errorf("backoff[%d] = %d, want %d (clamped to the odd cap)", i, ev.Backoff, want[i])
		}
	}
	if stats.Causes[string(kernel.KillUnauthenticated)] != 5 {
		t.Errorf("causes = %v", stats.Causes)
	}
}
