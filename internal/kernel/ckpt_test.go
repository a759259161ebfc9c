package kernel

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"asc/internal/binfmt"
	"asc/internal/ckpt"
	"asc/internal/vm"
)

// ckptLoopSrc opens a file, keeps the descriptor across a getpid loop
// (so a mid-loop checkpoint captures a live fd), then closes it and
// reports. r11/r12 survive calls.
const ckptLoopSrc = `
        .text
        .global main
main:
        MOVI r1, path
        MOVI r2, 0x41
        MOVI r3, 420
        CALL open
        MOV r11, r0
        MOVI r12, 20
.loop:
        CALL getpid
        ADDI r12, r12, -1
        MOVI r9, 0
        BNE r12, r9, .loop
        MOV r1, r11
        CALL close
        MOVI r1, msg
        CALL puts
        MOVI r0, 0
        RET
        .rodata
path:   .asciz "/tmp/out"
msg:    .asciz "done"
`

// runToCompletion executes p with a generous budget.
func runToCompletion(t *testing.T, k *Kernel, p *Process) {
	t.Helper()
	if err := k.Run(p, 100_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// sliceAndSeal spawns a process, interrupts it at roughly half of
// refCycles (mid-loop, descriptor open), and seals it under epoch.
func sliceAndSeal(t *testing.T, k *Kernel, exe *binfmt.File, refCycles, epoch uint64) (*Process, []byte) {
	t.Helper()
	p, err := k.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(p, refCycles/2); !errors.Is(err, vm.ErrCycleLimit) {
		t.Fatalf("slice run: err = %v, want cycle limit", err)
	}
	blob, err := k.Checkpoint(p, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return p, blob
}

// TestCheckpointRestoreRoundTrip: a process checkpointed mid-run and
// restored finishes with exactly the output, cycle count, and syscall
// totals of an uninterrupted run — and the memory-checker nonce is
// advanced by the restore (the replay cut).
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	exe := buildAuthExe(t, ckptLoopSrc)
	k := newKernel(t)

	ref, err := k.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, k, ref)
	if ref.Killed || !ref.Exited || ref.Code != 0 {
		t.Fatalf("reference run failed: killed=%v code=%d", ref.Killed, ref.Code)
	}

	p, err := k.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	p.Enforcement = EnforceDeny // restored processes keep their mode
	if err := k.Run(p, ref.CPU.Cycles/2); !errors.Is(err, vm.ErrCycleLimit) {
		t.Fatalf("slice run: err = %v, want cycle limit", err)
	}
	blob, err := k.Checkpoint(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	sealedCounter := p.counter

	r, err := k.Restore(exe, "test", blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Enforcement != EnforceDeny {
		t.Errorf("restored enforcement = %v, want deny", r.Enforcement)
	}
	if r.CPU.Cycles != p.CPU.Cycles {
		t.Errorf("restored cycles %d, sealed %d", r.CPU.Cycles, p.CPU.Cycles)
	}
	if r.counter != sealedCounter+1 {
		t.Errorf("restored nonce %d, want sealed+1 = %d (replay cut)", r.counter, sealedCounter+1)
	}
	runToCompletion(t, k, r)
	if r.Killed {
		t.Fatalf("restored process killed: %v", r.KilledBy)
	}
	if r.Output() != ref.Output() {
		t.Errorf("output %q, want %q", r.Output(), ref.Output())
	}
	if r.CPU.Cycles != ref.CPU.Cycles {
		t.Errorf("final cycles %d, want %d", r.CPU.Cycles, ref.CPU.Cycles)
	}
	if r.SyscallCount != ref.SyscallCount || r.VerifyCount != ref.VerifyCount {
		t.Errorf("syscalls %d/%d verified %d/%d",
			r.SyscallCount, ref.SyscallCount, r.VerifyCount, ref.VerifyCount)
	}
}

// TestCheckpointRestoreWithCache: restore under an enabled verify cache
// drops the cached sites (conservative full re-verification) and still
// runs to a clean exit.
func TestCheckpointRestoreWithCache(t *testing.T) {
	exe := buildAuthExe(t, ckptLoopSrc)
	k := newKernel(t, WithVerifyCache())

	ref, err := k.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, k, ref)
	_, blob := sliceAndSeal(t, k, exe, ref.CPU.Cycles, 1)

	r, err := k.Restore(exe, "test", blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.vcache != nil {
		t.Error("restore carried a verify cache")
	}
	before := r.CacheStats()
	runToCompletion(t, k, r)
	if r.Killed || r.Code != 0 {
		t.Fatalf("restored run failed: killed=%v (%v) code=%d", r.Killed, r.KilledBy, r.Code)
	}
	// The per-process cache was dropped, so no site may ride a free L1
	// hit: each must either re-verify (a miss) or re-adopt a fleet entry
	// (a share, which byte-compares the restored memory against the
	// fleet-verified copies).
	after := r.CacheStats()
	if after.Misses == before.Misses && after.Shares == before.Shares {
		t.Error("no post-restore miss or share: sites were not re-checked")
	}
}

// TestRestoreRejections: every checkpoint attack class is rejected with
// its classified error, and a failed restore leaves no process behind.
func TestRestoreRejections(t *testing.T) {
	exe := buildAuthExe(t, ckptLoopSrc)
	other := buildAuthExe(t, cacheLoopSrc)
	k := newKernel(t)

	ref, err := k.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, k, ref)
	_, blob := sliceAndSeal(t, k, exe, ref.CPU.Cycles, 5)

	k.mu.Lock()
	procsBefore := len(k.procs)
	k.mu.Unlock()

	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"bit flip", func() error {
			mut := append([]byte(nil), blob...)
			mut[len(mut)/3] ^= 0x10
			_, err := k.Restore(exe, "test", mut, 5)
			return err
		}, ckpt.ErrSeal},
		{"torn tail", func() error {
			_, err := k.Restore(exe, "test", blob[:len(blob)/2], 5)
			return err
		}, ckpt.ErrSeal},
		{"torn to stub", func() error {
			_, err := k.Restore(exe, "test", blob[:8], 5)
			return err
		}, ckpt.ErrTruncated},
		{"epoch replay", func() error {
			_, err := k.Restore(exe, "test", blob, 6)
			return err
		}, ckpt.ErrEpoch},
		{"wrong program", func() error {
			_, err := k.Restore(other, "test", blob, 5)
			return err
		}, ckpt.ErrProgram},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	k.mu.Lock()
	procsAfter := len(k.procs)
	k.mu.Unlock()
	if procsAfter != procsBefore {
		t.Errorf("failed restores leaked processes: %d -> %d", procsBefore, procsAfter)
	}

	// The untampered blob still restores: rejection is a property of the
	// attack, not of the blob's age.
	if _, err := k.Restore(exe, "test", blob, 5); err != nil {
		t.Errorf("genuine blob rejected after attack attempts: %v", err)
	}
}

// TestRestoreMissingFile: a checkpoint holding an open descriptor cannot
// restore on a machine whose filesystem lacks the file — an environment
// mismatch classified as state, not corruption.
func TestRestoreMissingFile(t *testing.T) {
	exe := buildAuthExe(t, ckptLoopSrc)
	k := newKernel(t)
	ref, err := k.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, k, ref)
	_, blob := sliceAndSeal(t, k, exe, ref.CPU.Cycles, 1)

	fresh := newKernel(t) // same key, no /tmp/out
	if _, err := fresh.Restore(exe, "test", blob, 1); !errors.Is(err, ckpt.ErrState) {
		t.Fatalf("err = %v, want ErrState", err)
	}
}

// TestCheckpointUnsupportedFDs: live pipes make a process
// uncheckpointable — the format refuses rather than silently dropping
// state.
func TestCheckpointUnsupportedFDs(t *testing.T) {
	exe := buildAuthExe(t, ckptLoopSrc)
	k := newKernel(t)
	p, err := k.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	p.fds = append(p.fds, &fdEntry{kind: fdPipeR, pipe: &pipeBuf{}})
	if _, err := k.Checkpoint(p, 1); !errors.Is(err, ckpt.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// ckptPagedSrc maps 32 arena pages, writes one word into each, and then
// calls getpid forever. At a budget of 16 resident pages, once it spins
// half its pages are resident, half are swap residue, and the rest of
// the arena was never touched.
const ckptPagedSrc = `
        .text
        .global main
main:
        MOVI r1, 0
        MOVI r2, 131072
        MOVI r3, 3
        MOVI r4, 0x22
        MOVI r5, 0
        CALL mmap
        MOV r8, r0
        MOVI r11, 32
.page:
        STORE [r8+0], r11
        ADDI r8, r8, 4096
        ADDI r11, r11, -1
        MOVI r9, 0
        BNE r11, r9, .page
.spin:
        CALL getpid
        JMP .spin
`

// spinPaged spawns ckptPagedSrc on k and runs it into its getpid loop.
func spinPaged(t testing.TB, k *Kernel, exe *binfmt.File) *Process {
	t.Helper()
	p, err := k.Spawn(exe, "paged")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(p, 2_000_000); !errors.Is(err, vm.ErrCycleLimit) {
		t.Fatalf("paged run: err = %v, want cycle limit", err)
	}
	if _, evicts, _ := p.PageStats(); evicts < 16 || p.pager.resident == 0 {
		t.Fatalf("paged run: %d evictions, %d resident; want residue and resident pages", evicts, p.pager.resident)
	}
	return p
}

// assertSameMemory fails unless r's address space is p's: the same two
// region lengths and raw bytes in each (so every byte of [Base, Limit)
// matches, the unbacked gap reading zero in both), the same segments and
// store generations, and the same page table and swap generations.
func assertSameMemory(t *testing.T, p, r *Process) {
	t.Helper()
	pl, ph := p.Mem.Regions()
	if rl, rh := r.Mem.Regions(); rl != pl || rh != ph {
		t.Fatalf("restored regions %d+%d bytes, live %d+%d", rl, rh, pl, ph)
	}
	for _, span := range [][2]uint32{{p.Mem.Base(), pl}, {p.Mem.Limit() - ph, ph}} {
		want, err := p.Mem.RawRead(span[0], span[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Mem.RawRead(span[0], span[1])
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("byte %#x: restored %#x, live %#x", span[0]+uint32(i), got[i], want[i])
		}
	}
	psegs, pgens := p.Mem.SnapshotSegments()
	rsegs, rgens := r.Mem.SnapshotSegments()
	if !reflect.DeepEqual(rsegs, psegs) || !reflect.DeepEqual(rgens, pgens) {
		t.Fatalf("segments %v gens %v, live %v gens %v", rsegs, rgens, psegs, pgens)
	}
	if (p.pager == nil) != (r.pager == nil) {
		t.Fatalf("paged: restored %v, live %v", r.pager != nil, p.pager != nil)
	}
	if p.pager == nil {
		return
	}
	for i := 0; i < p.pager.pt.NumPages(); i++ {
		if f, g := r.pager.pt.Flags(i), p.pager.pt.Flags(i); f != g {
			t.Fatalf("page %d flags %#x, live %#x", i, f, g)
		}
	}
	if !reflect.DeepEqual(r.pager.gens, p.pager.gens) {
		t.Fatalf("page generations %v, live %v", r.pager.gens, p.pager.gens)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestCheckpointDifferential: a checkpoint taken after accesses that
// shape the address space every way it can be shaped restores to the
// same bytes, segments, generations and page state as the live process,
// with the same two region lengths; and taking it leaves the live
// process's regions as they were.
func TestCheckpointDifferential(t *testing.T) {
	plain := buildExe(t, ckptLoopSrc)
	stackStart := uint32(binfmt.TextBase + DefaultMemSize - DefaultStackSize)
	write := func(t *testing.T, p *Process, addr uint32, b []byte) {
		t.Helper()
		if err := p.Mem.UserWrite(addr, b); err != nil {
			t.Fatal(err)
		}
	}
	brk := func(t *testing.T, k *Kernel, p *Process, addr uint32) {
		t.Helper()
		if got := k.sysBrk(p, addr); got != addr {
			t.Fatalf("brk(%#x) = %#x", addr, got)
		}
	}
	cases := []struct {
		name  string
		paged bool
		shape func(t *testing.T, k *Kernel, p *Process)
		check func(t *testing.T, p *Process)
	}{
		{name: "low and high", shape: func(t *testing.T, k *Kernel, p *Process) {
			brk(t, k, p, p.brk+0x4000)
			write(t, p, p.brk-0x10, []byte{1, 2, 3})
			write(t, p, p.Mem.Limit()-8, []byte{4})
			write(t, p, p.Mem.Limit()-0x7000, []byte{5}) // zero pages between two stack runs
		}},
		{name: "gap", shape: func(t *testing.T, k *Kernel, p *Process) {
			brk(t, k, p, stackStart-0x1000)
			write(t, p, stackStart-0x20_0000, []byte{6})
			write(t, p, stackStart+0x100, []byte{7})
		}, check: func(t *testing.T, p *Process) {
			if low, high := p.Mem.Regions(); low+high >= DefaultMemSize {
				t.Fatalf("regions %d+%d leave no gap", low, high)
			}
		}},
		{name: "straddle collapses to flat", shape: func(t *testing.T, k *Kernel, p *Process) {
			brk(t, k, p, stackStart-1)
			write(t, p, heapStartOf(p)+0x2000, []byte{8}) // low reaches into the heap
			write(t, p, p.brk-0x2_0000, []byte{9})        // high reaches into the heap
			write(t, p, stackStart+8, []byte{10})
			low, high := p.Mem.Regions()
			lowEnd, highStart := p.Mem.Base()+low, p.Mem.Limit()-high
			// One store across the gap; the byte at stackStart-1 lies in
			// no segment, so it stays zero.
			span := make([]byte, highStart-lowEnd+32)
			copy(span, "straddle")
			copy(span[len(span)-8:], "straddle")
			write(t, p, lowEnd-16, span)
		}, check: func(t *testing.T, p *Process) {
			if low, high := p.Mem.Regions(); low != DefaultMemSize || high != 0 {
				t.Fatalf("regions %d+%d, want flat", low, high)
			}
		}},
		{name: "image page zeroed", shape: func(t *testing.T, k *Kernel, p *Process) {
			ro := plain.Section(binfmt.SecROData)
			if b, _ := p.Mem.RawRead(ro.Addr, ro.Size); bytes.Count(b, []byte{0}) == len(b) {
				t.Fatal(".rodata holds no nonzero byte to zero")
			}
			if err := p.Mem.KernelWrite(ro.Addr, make([]byte, ro.Size)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "paged arena", paged: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var k *Kernel
			var p *Process
			exe := plain
			if tc.paged {
				exe = buildExe(t, ckptPagedSrc)
				k = newKernel(t, WithMode(Permissive), WithPagedMemory(16))
				p = spinPaged(t, k, exe)
			} else {
				k = newKernel(t, WithMode(Permissive))
				var err error
				if p, err = k.Spawn(exe, "test"); err != nil {
					t.Fatal(err)
				}
				if err := k.Run(p, 200); !errors.Is(err, vm.ErrCycleLimit) {
					t.Fatalf("run: err = %v, want cycle limit", err)
				}
				tc.shape(t, k, p)
			}
			if tc.check != nil {
				tc.check(t, p)
			}
			low, high := p.Mem.Regions()
			blob, err := k.Checkpoint(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			if l, h := p.Mem.Regions(); l != low || h != high {
				t.Fatalf("Checkpoint grew the live regions from %d+%d to %d+%d", low, high, l, h)
			}
			r, err := k.Restore(exe, "test", blob, 1)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMemory(t, p, r)
		})
	}
}

// nonzeroPages counts the pages of p's backed regions that hold a
// nonzero byte, reading every backed page.
func nonzeroPages(t testing.TB, p *Process) int {
	t.Helper()
	low, high := p.Mem.Regions()
	n := 0
	for _, span := range [][2]uint32{{p.Mem.Base(), low}, {p.Mem.Limit() - high, high}} {
		for off := uint32(0); off < span[1]; off += vm.PageSize {
			b, err := p.Mem.RawRead(span[0]+off, min(vm.PageSize, span[1]-off))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Count(b, []byte{0}) != len(b) {
				n++
			}
		}
	}
	return n
}

// TestCheckpointSize bounds a blob by the memory it must carry: a page
// per nonzero page and per page of swap residue, plus 8 KiB of
// everything else. A blob that copies zeros — whole segments, the
// unbacked gap, the zero-scrubbed evicted pages — fails it.
func TestCheckpointSize(t *testing.T) {
	for _, paged := range []bool{false, true} {
		k, p := ckptSizeProc(t, paged)
		residue := 0
		if p.pager != nil {
			for i, g := range p.pager.gens {
				if g != 0 && p.pager.pt.Flags(i)&vm.PagePresent == 0 {
					residue++
				}
			}
		}
		blob, err := k.Checkpoint(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		nz := nonzeroPages(t, p)
		bound := (nz+residue)*vm.PageSize + 8<<10
		t.Logf("paged=%v: %d-byte blob, %d nonzero and %d residue pages, bound %d", paged, len(blob), nz, residue, bound)
		if len(blob) > bound {
			t.Errorf("paged=%v: %d-byte blob exceeds %d", paged, len(blob), bound)
		}
	}
}

// ckptSizeProc returns a kernel and an authenticated process in
// mid-run: the getpid loop on a flat kernel, or the paged spinner at a
// budget of 16 pages.
func ckptSizeProc(t testing.TB, paged bool) (*Kernel, *Process) {
	t.Helper()
	if paged {
		k := newKernel(t, WithPagedMemory(16))
		return k, spinPaged(t, k, buildAuthExe(t, ckptPagedSrc))
	}
	k := newKernel(t)
	p, err := k.Spawn(buildAuthExe(t, benchLoopSrc), "flat")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(p, 100_000); !errors.Is(err, vm.ErrCycleLimit) {
		t.Fatalf("flat run: err = %v, want cycle limit", err)
	}
	return k, p
}
