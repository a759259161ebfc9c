package fault

import (
	"bytes"
	"testing"
)

// TestCampaignContract runs the full campaign and requires a clean
// contract: every in-boundary fault detected with an allowed reason in
// both enforcement modes, out-of-boundary faults survived, and outcomes
// identical with the verify cache on and off.
func TestCampaignContract(t *testing.T) {
	m, err := Run(Config{Seed: 42, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fails := m.Failures(); len(fails) > 0 {
		for _, f := range fails {
			t.Error(f)
		}
	}
	t.Logf("\n%s", m.Render())

	// Every scenario ran, and fired somewhere in the corpus.
	firedBy := map[string]int{}
	for _, c := range m.Cells {
		firedBy[c.Class] += c.Fired
	}
	for _, sc := range Scenarios() {
		if _, ok := firedBy[string(sc.Name)]; !ok {
			t.Errorf("scenario %s missing from matrix", sc.Name)
		}
		if firedBy[string(sc.Name)] == 0 {
			t.Errorf("scenario %s never fired across the corpus", sc.Name)
		}
	}

	// Every victim's supervised-restart demo recovered from its
	// transient fault in exactly one restart.
	if len(m.Restarts) != 6 {
		t.Fatalf("restart cells = %d, want one per victim", len(m.Restarts))
	}
	for _, r := range m.Restarts {
		if !r.Recovered || r.Attempts != 2 || r.Restarts != 1 {
			t.Errorf("restart %s: %+v, want recovery in one restart", r.Victim, r)
		}
	}
}

// TestCampaignDeterminism requires byte-identical JSON for equal seeds
// and a different matrix for a different seed.
func TestCampaignDeterminism(t *testing.T) {
	run := func(seed uint64) []byte {
		t.Helper()
		m, err := Run(Config{Seed: seed, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		j, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a1, a2, b := run(7), run(7), run(8)
	if !bytes.Equal(a1, a2) {
		t.Error("same seed produced different JSON")
	}
	if bytes.Equal(a1, b) {
		t.Error("different seeds produced identical JSON (suspicious)")
	}
}
