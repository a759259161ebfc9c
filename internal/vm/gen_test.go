package vm

import (
	"bytes"
	"testing"

	"asc/internal/isa"
)

func genTestMemory() *Memory {
	m := NewMemory(0x1000, 0x3000)
	m.Map(Segment{Name: "a", Start: 0x1000, End: 0x2000, Perms: PermRead | PermWrite | PermExec})
	m.Map(Segment{Name: "b", Start: 0x2000, End: 0x3000, Perms: PermRead | PermWrite})
	m.Map(Segment{Name: "ro", Start: 0x3000, End: 0x4000, Perms: PermRead})
	return m
}

func TestSpanGeneration(t *testing.T) {
	m := genTestMemory()
	if g, ok := m.SpanGeneration(0x1100, 16); !ok || g != 0 {
		t.Fatalf("fresh segment: got gen=%d ok=%v", g, ok)
	}
	// Spans crossing a segment boundary are not provable.
	if _, ok := m.SpanGeneration(0x1ff0, 32); ok {
		t.Fatal("cross-segment span must not resolve")
	}
	if _, ok := m.SpanGeneration(0x5000, 4); ok {
		t.Fatal("unmapped span must not resolve")
	}
	// Wraparound.
	if _, ok := m.SpanGeneration(0xfffffff0, 0x20); ok {
		t.Fatal("wrapping span must not resolve")
	}
}

func TestCPUStoreBumpsGeneration(t *testing.T) {
	m := genTestMemory()
	c := New(m, nil)
	g0, _ := m.SpanGeneration(0x2000, 4)
	c.Regs[isa.R1] = 0x2000
	c.Regs[isa.R2] = 0xdead
	if err := c.store(c.Regs[isa.R1], c.Regs[isa.R2], 4); err != nil {
		t.Fatal(err)
	}
	g1, _ := m.SpanGeneration(0x2000, 4)
	if g1 != g0+1 {
		t.Fatalf("store did not bump generation: %d -> %d", g0, g1)
	}
	// Byte store bumps too.
	if err := c.store(0x2004, 0x41, 1); err != nil {
		t.Fatal(err)
	}
	if g2, _ := m.SpanGeneration(0x2000, 4); g2 != g1+1 {
		t.Fatalf("byte store did not bump generation")
	}
	// The neighbouring segment is untouched.
	if ga, _ := m.SpanGeneration(0x1100, 4); ga != 0 {
		t.Fatalf("unrelated segment bumped: gen=%d", ga)
	}
	// A faulting store (read-only target) does not bump.
	gr0, _ := m.SpanGeneration(0x3000, 4)
	if err := c.store(0x3000, 1, 4); err == nil {
		t.Fatal("store to read-only segment must fault")
	}
	if gr1, _ := m.SpanGeneration(0x3000, 4); gr1 != gr0 {
		t.Fatal("faulting store bumped generation")
	}
}

func TestKernelVsUserWriteGenerations(t *testing.T) {
	m := genTestMemory()
	g0, _ := m.SpanGeneration(0x2100, 8)
	// Privileged kernel bookkeeping is invisible to the counters.
	if err := m.KernelWrite(0x2100, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.KernelStore32(0x2104, 99); err != nil {
		t.Fatal(err)
	}
	if g, _ := m.SpanGeneration(0x2100, 8); g != g0 {
		t.Fatal("KernelWrite bumped a generation")
	}
	// Application-visible data delivery bumps.
	if err := m.UserWrite(0x2100, []byte{5, 6}); err != nil {
		t.Fatal(err)
	}
	if g, _ := m.SpanGeneration(0x2100, 8); g != g0+1 {
		t.Fatal("UserWrite did not bump the generation")
	}
	// A UserWrite spanning two segments bumps both.
	if err := m.UserWrite(0x1ffe, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	ga, _ := m.SpanGeneration(0x1100, 4)
	gb, _ := m.SpanGeneration(0x2100, 8)
	if ga != 1 || gb != g0+2 {
		t.Fatalf("cross-segment UserWrite: got a=%d b=%d", ga, gb)
	}
}

// TestUserWriteNeedsWritableSegments: a UserWrite may cross adjacent
// writable segments, but faults — writing nothing and bumping no
// generation — on any byte outside one, and it allocates nothing.
func TestUserWriteNeedsWritableSegments(t *testing.T) {
	m := genTestMemory()
	for _, addr := range []uint32{0x2ffe, 0x3000} {
		g0, _ := m.SpanGeneration(0x2100, 8)
		if err := m.UserWrite(addr, []byte{1, 2, 3, 4}); err == nil {
			t.Fatalf("UserWrite at %#x into the read-only segment succeeded", addr)
		}
		if b, _ := m.KernelRead(0x2ffe, 6); !bytes.Equal(b, make([]byte, 6)) {
			t.Fatalf("faulting UserWrite at %#x stored %v", addr, b)
		}
		if g, _ := m.SpanGeneration(0x2100, 8); g != g0 {
			t.Fatalf("faulting UserWrite at %#x bumped a generation", addr)
		}
	}
	b := []byte{1, 2, 3, 4}
	if n := testing.AllocsPerRun(10, func() {
		if err := m.UserWrite(0x1ffe, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("UserWrite allocated %v times per call", n)
	}
}

func TestMapPreservesGeneration(t *testing.T) {
	m := genTestMemory()
	if err := m.UserWrite(0x2100, []byte{1}); err != nil {
		t.Fatal(err)
	}
	g0, _ := m.SpanGeneration(0x2100, 1)
	if g0 == 0 {
		t.Fatal("setup: generation not bumped")
	}
	// Remapping (brk-style growth) keeps the counter.
	m.Map(Segment{Name: "b", Start: 0x2000, End: 0x3800, Perms: PermRead | PermWrite})
	if g, ok := m.SpanGeneration(0x2100, 1); !ok || g != g0 {
		t.Fatalf("remap reset generation: got %d want %d", g, g0)
	}
}
