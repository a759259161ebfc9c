package fault

import (
	"slices"
	"testing"

	"asc/internal/kernel"
)

// TestEngineDeterminism pins that an engine's decisions are a pure
// function of (class, seed).
func TestEngineDeterminism(t *testing.T) {
	for _, class := range Classes() {
		a := NewEngine(class, 1234)
		b := NewEngine(class, 1234)
		if a.trigger != b.trigger || a.pick != b.pick {
			t.Errorf("%s: same seed, different decisions", class)
		}
		c := NewEngine(class, 1235)
		if a.trigger == c.trigger && a.pick == c.pick {
			t.Errorf("%s: different seed, identical decisions", class)
		}
		if a.trigger < 0 || a.trigger >= triggerWindow {
			t.Errorf("%s: trigger %d outside window", class, a.trigger)
		}
	}
}

// TestExpectationTable checks the contract table's internal consistency.
func TestExpectationTable(t *testing.T) {
	for _, class := range Classes() {
		exp := Expectation(class)
		if exp.Detected && len(exp.Reasons) == 0 {
			t.Errorf("%s: detected but no allowed reasons", class)
		}
		if !exp.Detected && len(exp.Reasons) != 0 {
			t.Errorf("%s: undetected class lists reasons", class)
		}
	}
	exp := Expectation(FlipCFState)
	if !exp.ReasonAllowed(string(kernel.KillBadState)) {
		t.Error("FlipCFState must allow KillBadState")
	}
	if exp.ReasonAllowed(string(kernel.KillBadCallMAC)) {
		t.Error("FlipCFState must not allow KillBadCallMAC")
	}
	if Expectation(Class("no-such-class")).Detected {
		t.Error("unknown class must have an empty expectation")
	}
}

// TestScenarioRegistry checks the registry's internal consistency: one
// row per name, every row names its layer, every detecting row lists
// what it may be detected for, and the kernel-layer rows are exactly
// the Engine's classes in canonical order.
func TestScenarioRegistry(t *testing.T) {
	seen := map[Class]bool{}
	var kernelRows []Class
	for _, sc := range Scenarios() {
		if seen[sc.Name] {
			t.Errorf("scenario %s registered twice", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Layer == "" {
			t.Errorf("scenario %s names no layer", sc.Name)
		}
		if sc.Expect.Detected && len(sc.Expect.Reasons) == 0 {
			t.Errorf("scenario %s is detected but lists no allowed reason", sc.Name)
		}
		if sc.Layer == LayerKernel {
			kernelRows = append(kernelRows, sc.Name)
		}
	}
	if !slices.Equal(kernelRows, Classes()) {
		t.Errorf("kernel-layer rows %v, want Classes() %v", kernelRows, Classes())
	}
}

// TestTornWriteUnarmed pins the no-fault contract of the write hook.
func TestTornWriteUnarmed(t *testing.T) {
	e := NewEngine(TornStore, 99)
	if n := e.TornWrite(0x2000, 16); n != 16 {
		t.Errorf("unarmed TornWrite truncated to %d", n)
	}
	if e.Fired() {
		t.Error("unarmed TornWrite fired")
	}
}

// TestNonceUpdateUnarmed pins the faithful-update default.
func TestNonceUpdateUnarmed(t *testing.T) {
	for _, class := range []Class{DropNonce, DupNonce, FlipRecord} {
		e := NewEngine(class, 7)
		if d := e.NonceUpdate(nil); d != 1 {
			t.Errorf("%s: unarmed NonceUpdate = %d, want 1", class, d)
		}
	}
	// Armed engines perturb exactly once.
	drop := NewEngine(DropNonce, 7)
	drop.armedNonce = true
	if d := drop.NonceUpdate(nil); d != 0 {
		t.Errorf("armed drop = %d, want 0", d)
	}
	if d := drop.NonceUpdate(nil); d != 1 {
		t.Errorf("second update = %d, want 1", d)
	}
	dup := NewEngine(DupNonce, 7)
	dup.armedNonce = true
	if d := dup.NonceUpdate(nil); d != 2 {
		t.Errorf("armed dup = %d, want 2", d)
	}
}
