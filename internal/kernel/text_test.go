package kernel

import (
	"testing"

	"asc/internal/isa"
)

// exitFiveSrc returns 5 from main; the tests below patch its first
// instruction to MOVI r0, 7 in one process's memory.
const exitFiveSrc = `
        .text
        .global main
main:
        MOVI r0, 5
        RET
`

// patchExitSeven spawns exe and overwrites main's MOVI r0, 5 with
// MOVI r0, 7 through a privileged write, as the attack and fault code do.
func patchExitSeven(t *testing.T, k *Kernel) (*Process, uint32) {
	t.Helper()
	exe := buildAuthExe(t, exitFiveSrc)
	p, err := k.Spawn(exe, "patched")
	if err != nil {
		t.Fatal(err)
	}
	main, ok := exe.SymbolAddr("main")
	if !ok {
		t.Fatal("no main")
	}
	patch := make([]byte, isa.InstrSize)
	isa.Instr{Op: isa.OpMOVI, Rd: isa.R0, Imm: 7}.Encode(patch)
	if err := p.Mem.KernelWrite(main, patch); err != nil {
		t.Fatal(err)
	}
	return p, main
}

// runExit runs p to its exit and returns the exit code.
func runExit(t *testing.T, k *Kernel, p *Process) uint32 {
	t.Helper()
	if err := k.Run(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !p.Exited || p.Killed {
		t.Fatalf("%s: exited %v, killed %v (%s)", p.Name, p.Exited, p.Killed, p.KilledBy)
	}
	return p.Code
}

// TestTextWriteExecutes: a process runs the instructions its memory holds.
// A privileged write into its text executes as written, with nothing to
// re-decode by hand, and reaches no other instance of the binary: a
// sibling spawned before the write and a process spawned after it run
// the installed code.
func TestTextWriteExecutes(t *testing.T) {
	k := newKernel(t)
	p, _ := patchExitSeven(t, k)
	sibling, err := k.Spawn(p.prog.file, "sibling")
	if err != nil {
		t.Fatal(err)
	}
	if code := runExit(t, k, p); code != 7 {
		t.Errorf("patched process exited %d, want 7", code)
	}
	if code := runExit(t, k, sibling); code != 5 {
		t.Errorf("sibling exited %d, want 5", code)
	}
	next, err := k.Spawn(p.prog.file, "next")
	if err != nil {
		t.Fatal(err)
	}
	if code := runExit(t, k, next); code != 5 {
		t.Errorf("next spawn exited %d, want 5", code)
	}
}

// TestRestoredTextExecutes: a checkpoint captures the text a process's
// memory holds, and the restored process executes exactly that text.
func TestRestoredTextExecutes(t *testing.T) {
	k := newKernel(t)
	p, main := patchExitSeven(t, k)
	blob, err := k.Checkpoint(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := k.Restore(p.prog.file, "restored", blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Mem.KernelRead(main, isa.InstrSize)
	if err != nil {
		t.Fatal(err)
	}
	if in, err := isa.Decode(b); err != nil || in.Op != isa.OpMOVI || in.Imm != 7 {
		t.Fatalf("restored memory holds %v (%v) at main, want MOVI r0, 7", in, err)
	}
	if code := runExit(t, k, r); code != 7 {
		t.Errorf("restored process exited %d, want 7", code)
	}
	next, err := k.Spawn(p.prog.file, "next")
	if err != nil {
		t.Fatal(err)
	}
	if code := runExit(t, k, next); code != 5 {
		t.Errorf("next spawn exited %d, want 5", code)
	}
}
