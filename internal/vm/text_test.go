package vm

import (
	"fmt"
	"slices"
	"testing"

	"asc/internal/isa"
)

const textBase = 0x1000

// encodeAll encodes ins back to back.
func encodeAll(ins ...isa.Instr) []byte {
	code := make([]byte, len(ins)*isa.InstrSize)
	for i, in := range ins {
		in.Encode(code[i*isa.InstrSize:])
	}
	return code
}

// textMemory loads code at textBase into a writable and executable text
// segment, with a data page and a stack page.
func textMemory(t testing.TB, code []byte) *Memory {
	t.Helper()
	m := NewMemory(textBase, 64<<10)
	if err := m.KernelWrite(textBase, code); err != nil {
		t.Fatal(err)
	}
	m.Map(Segment{Name: "text", Start: textBase, End: textBase + uint32(len(code)), Perms: PermRead | PermWrite | PermExec})
	m.Map(Segment{Name: "data", Start: 0x3000, End: 0x4000, Perms: PermRead | PermWrite})
	m.Map(Segment{Name: "stack", Start: m.Limit() - PageSize, End: m.Limit(), Perms: PermRead | PermWrite})
	return m
}

// TestTextView: a decoded text attaches only over the bytes it was
// decoded from, inside an executable segment and outside the paged
// arena, and every way of changing those bytes or their protection
// drops it, while writes elsewhere keep it.
func TestTextView(t *testing.T) {
	code := encodeAll(isa.Instr{Op: isa.OpMOVI, Rd: isa.R1, Imm: 1}, isa.Instr{Op: isa.OpHALT})
	text := DecodeText(textBase, code)
	end := uint32(textBase + len(code))
	for _, tc := range []struct {
		name   string
		change func(*Memory)
		kept   bool
	}{
		{"nothing", func(*Memory) {}, true},
		{"kernel write elsewhere", func(m *Memory) { m.KernelWrite(0x3000, []byte{1}) }, true},
		{"heap mapped elsewhere", func(m *Memory) { m.Map(Segment{Name: "heap", Start: 0x4000, End: 0x5000}) }, true},
		{"kernel write of the same bytes", func(m *Memory) { m.KernelWrite(end-1, code[len(code)-1:]) }, false},
		{"raw write", func(m *Memory) { m.RawWrite(textBase, []byte{0}) }, false},
		{"zero", func(m *Memory) { m.Zero(end-1, 1) }, false},
		{"segment mapped over it", func(m *Memory) { m.Map(Segment{Name: "x", Start: end - 1, End: end}) }, false},
		{"text segment moved", func(m *Memory) { m.Map(Segment{Name: "text", Start: 0x3000, End: 0x3010}) }, false},
		{"restore", func(m *Memory) { m.RestoreSegments(m.SnapshotSegments()) }, false},
		{"paging", func(m *Memory) { m.SetPaging(nil, nil) }, false},
		{"cpu store", func(m *Memory) {
			c := New(m, nil)
			if err := c.store(textBase+4, 2, 4); err != nil {
				t.Fatal(err)
			}
		}, false},
	} {
		m := textMemory(t, code)
		if !m.AttachText(text) {
			t.Fatalf("%s: text not attached", tc.name)
		}
		tc.change(m)
		if kept := m.Text() == text; kept != tc.kept {
			t.Errorf("%s: view kept %v, want %v", tc.name, kept, tc.kept)
		}
	}

	m := textMemory(t, code)
	m.KernelWrite(textBase+4, []byte{9})
	if m.AttachText(text) || m.Text() != nil {
		t.Error("text attached over bytes that differ")
	}
	m = textMemory(t, code)
	m.Map(Segment{Name: "text", Start: textBase, End: end, Perms: PermRead})
	if m.AttachText(text) {
		t.Error("text attached outside an executable segment")
	}
	m = textMemory(t, code)
	m.SetPaging(NewPageTable(textBase, 1), nil)
	if m.AttachText(text) {
		t.Error("text attached inside the paged arena")
	}
}

// runFetch runs code at textBase for at most 20k cycles, fetching through
// the decoded view or decoding every fetch from memory.
func runFetch(t testing.TB, code []byte, view bool) (*CPU, *fakeKernel, error) {
	m := textMemory(t, code)
	if view && !m.AttachText(DecodeText(textBase, code)) {
		t.Fatal("text not attached")
	}
	k := &fakeKernel{}
	c := New(m, k)
	c.PC = textBase
	c.Regs[isa.SP] = m.Limit()
	return c, k, c.Run(20_000)
}

// FuzzDecodedFetch runs fuzzed instruction words with the decoded view
// attached and without it: registers, PC, cycles, halt state, traps and
// fault must match. The text segment is writable, so fuzzed stores into
// it test that a write drops the view before the next fetch.
func FuzzDecodedFetch(f *testing.F) {
	f.Add(encodeAll(
		isa.Instr{Op: isa.OpMOVI, Rd: isa.R1, Imm: 10},
		isa.Instr{Op: isa.OpADDI, Rd: isa.R1, Rs: isa.R1, Imm: 0xffffffff},
		isa.Instr{Op: isa.OpBNE, Rs: isa.R1, Rt: isa.R2, Imm: textBase + isa.InstrSize},
		isa.Instr{Op: isa.OpMOVI, Rd: isa.R0, Imm: 1},
		isa.Instr{Op: isa.OpSYSCALL},
	))
	// Patches the immediate of its own fifth instruction, then runs it.
	f.Add(encodeAll(
		isa.Instr{Op: isa.OpMOVI, Rd: isa.R1, Imm: textBase + 4*isa.InstrSize + 4},
		isa.Instr{Op: isa.OpMOVI, Rd: isa.R2, Imm: 7},
		isa.Instr{Op: isa.OpSTORE, Rd: isa.R1, Rs: isa.R2},
		isa.Instr{Op: isa.OpNOP},
		isa.Instr{Op: isa.OpMOVI, Rd: isa.R3, Imm: 5},
		isa.Instr{Op: isa.OpHALT},
	))
	f.Add(encodeAll(isa.Instr{Op: isa.OpJMP, Imm: textBase + 4}, isa.Instr{Op: isa.OpHALT}))
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, code []byte) {
		code = code[:min(len(code), 64*isa.InstrSize)]
		want, wk, werr := runFetch(t, code, false)
		got, gk, gerr := runFetch(t, code, true)
		if got.Regs != want.Regs || got.PC != want.PC || got.Cycles != want.Cycles || got.Halted != want.Halted ||
			fmt.Sprint(gerr) != fmt.Sprint(werr) || !slices.Equal(gk.traps, wk.traps) {
			t.Fatalf("with the view: regs %v pc %#x cycles %d halted %v err %v traps %v\n"+
				"decoding:      regs %v pc %#x cycles %d halted %v err %v traps %v",
				got.Regs, got.PC, got.Cycles, got.Halted, gerr, gk.traps,
				want.Regs, want.PC, want.Cycles, want.Halted, werr, wk.traps)
		}
	})
}
