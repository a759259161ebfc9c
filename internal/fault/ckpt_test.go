package fault

import (
	"bytes"
	"testing"

	"asc/internal/ckpt"
)

// TestCkptCampaignCells: the checkpoint fault classes achieve 100%
// detection — every trial fires, every tampered blob is rejected with
// the class's canonical reason, and every workload recovers warm. Kill
// and Deny runs must match per trial; a divergence is a failure.
func TestCkptCampaignCells(t *testing.T) {
	var names []Class
	for _, sc := range Scenarios() {
		if sc.Layer == LayerCkpt {
			names = append(names, sc.Name)
		}
	}
	m, err := Run(Config{Seed: 11, Trials: 2, Classes: names})
	if err != nil {
		t.Fatal(err)
	}
	if fails := m.Failures(); len(fails) > 0 {
		for _, f := range fails {
			t.Error(f)
		}
	}

	const victims = 3
	if want := len(names) * victims; len(names) != 4 || len(m.Cells) != want {
		t.Fatalf("%d ckpt scenarios, %d cells, want 4 and %d", len(names), len(m.Cells), want)
	}
	for _, c := range m.Cells {
		r := c.Recovery
		if c.Layer != LayerCkpt || r == nil {
			t.Fatalf("%s/%s: layer %q, recovery %v", c.Class, c.Victim, c.Layer, r)
		}
		if c.Fired != c.Trials || c.Detected != c.Trials || r.Recovered != c.Trials {
			t.Errorf("%s/%s: fired=%d detected=%d recovered=%d of %d trials",
				c.Class, c.Victim, c.Fired, c.Detected, r.Recovered, c.Trials)
		}
		if r.WarmRestarts < c.Trials {
			t.Errorf("%s/%s: %d warm restarts for %d trials", c.Class, c.Victim, r.WarmRestarts, c.Trials)
		}
		if r.ColdStarts != 0 {
			t.Errorf("%s/%s: %d cold starts with an intact fallback", c.Class, c.Victim, r.ColdStarts)
		}
		exp := Expectation(Class(c.Class))
		for reason := range c.Reasons {
			if !exp.ReasonAllowed(reason) {
				t.Errorf("%s/%s: reason %q outside %v", c.Class, c.Victim, reason, exp.Reasons)
			}
		}
	}
}

// TestClassesSelectScenarios: Config.Classes selects scenarios on any
// layer and restricts the matrix to them; an unknown name is an error.
func TestClassesSelectScenarios(t *testing.T) {
	m, err := Run(Config{Seed: 11, Trials: 1, Classes: []Class{CkptFlip}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range m.Cells {
		if c.Class != string(CkptFlip) {
			t.Errorf("cell %s/%s ran outside the selection", c.Class, c.Victim)
		}
	}
	if _, err := Run(Config{Trials: 1, Classes: []Class{"no-such-class"}}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestCkptFaultTamper: the tamper hook's per-class transformations and
// its fire-once discipline, without running a campaign.
func TestCkptFaultTamper(t *testing.T) {
	chain := []ckpt.Entry{
		{Epoch: 3, Blob: bytes.Repeat([]byte{0xaa}, 200)},
		{Epoch: 2, Blob: bytes.Repeat([]byte{0xbb}, 200)},
		{Epoch: 1, Blob: bytes.Repeat([]byte{0xcc}, 200)},
	}
	donor := []ckpt.Entry{
		{Epoch: 3, Blob: bytes.Repeat([]byte{0xdd}, 150)},
	}

	torn := NewCkptFault(CkptTorn, 5, nil)
	out := torn.Tamper(chain, 0)
	if !torn.Fired() || len(out) >= len(chain[0].Blob) {
		t.Errorf("torn: fired=%v len=%d, want strict prefix", torn.Fired(), len(out))
	}
	if got := torn.Tamper(chain, 0); !bytes.Equal(got, chain[0].Blob) {
		t.Error("torn tampered twice")
	}

	flip := NewCkptFault(CkptFlip, 5, nil)
	out = flip.Tamper(chain, 0)
	if len(out) != len(chain[0].Blob) {
		t.Fatalf("flip changed length: %d", len(out))
	}
	var bits int
	for i := range out {
		b := out[i] ^ chain[0].Blob[i]
		for ; b != 0; b &= b - 1 {
			bits++
		}
	}
	if bits != 1 {
		t.Errorf("flip changed %d bits, want exactly 1", bits)
	}

	replay := NewCkptFault(CkptReplay, 5, nil)
	if got := replay.Tamper(chain[:1], 0); !bytes.Equal(got, chain[0].Blob) || replay.Fired() {
		t.Error("replay fired with nothing older to replay")
	}
	if got := replay.Tamper(chain, 0); !bytes.Equal(got, chain[1].Blob) || !replay.Fired() {
		t.Error("replay did not serve the older blob")
	}

	swap := NewCkptFault(CkptSwap, 5, donor)
	if got := swap.Tamper(chain, 0); !bytes.Equal(got, donor[0].Blob) || !swap.Fired() {
		t.Error("swap did not serve the donor blob")
	}
	noMatch := NewCkptFault(CkptSwap, 5, []ckpt.Entry{{Epoch: 9, Blob: donor[0].Blob}})
	if got := noMatch.Tamper(chain, 0); !bytes.Equal(got, chain[0].Blob) || noMatch.Fired() {
		t.Error("swap fired without an epoch-matching donor")
	}

	// Older entries always pass through pristine.
	fresh := NewCkptFault(CkptFlip, 5, nil)
	if got := fresh.Tamper(chain, 1); !bytes.Equal(got, chain[1].Blob) {
		t.Error("non-newest entry tampered")
	}
}
