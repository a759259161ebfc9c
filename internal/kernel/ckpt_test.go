package kernel

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
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

// assertSameMemory fails unless r's address space is p's: the same raw
// bytes in every page of [Base, Limit) (unallocated pages reading zero),
// with every page r allocated holding a nonzero byte, the same segments
// and store generations, and the same page table and swap generations.
func assertSameMemory(t *testing.T, p, r *Process) {
	t.Helper()
	for a := uint64(p.Mem.Base()); a < uint64(p.Mem.Limit()); a += vm.PageSize {
		want, err := p.Mem.RawRead(uint32(a), vm.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Mem.RawRead(uint32(a), vm.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("byte %#x: restored %#x, live %#x", a+uint64(i), got[i], want[i])
		}
	}
	if n, nz := pages(r), nonzeroPages(r); n != nz {
		t.Fatalf("restored memory allocated %d pages, %d of them hold data", n, nz)
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
// allocating only the pages that hold data; and taking it allocates no
// page of the live process.
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
			if n := pages(p); n*vm.PageSize >= DefaultMemSize/16 {
				t.Fatalf("%d pages allocated: the gap is not sparse", n)
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
			live := pages(p)
			blob, err := k.Checkpoint(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			if n := pages(p); n != live {
				t.Fatalf("Checkpoint took the live process from %d to %d pages", live, n)
			}
			r, err := k.Restore(exe, "test", blob, 1)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMemory(t, p, r)
		})
	}
}

// pages counts the pages p's memory has allocated.
func pages(p *Process) int {
	b, _ := p.Mem.Footprint()
	return b / vm.PageSize
}

// nonzeroPages counts the pages of p's memory that hold a nonzero byte.
func nonzeroPages(p *Process) int {
	n := 0
	p.Mem.NonzeroRuns(p.Mem.Base(), p.Mem.Limit(), func(uint32, []byte) { n++ })
	return n
}

// TestCheckpointSize bounds a blob by the memory it must carry: a page
// per allocated page and per page of swap residue, plus 8 KiB of
// everything else. A blob that copies zeros — whole segments, the
// unallocated gap, the freed evicted pages — fails it.
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
		alloc := pages(p)
		bound := (alloc+residue)*vm.PageSize + 8<<10
		t.Logf("paged=%v: %d-byte blob, %d allocated and %d residue pages, bound %d", paged, len(blob), alloc, residue, bound)
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

// TestBrkScrubsLoweredHeap: lowering the break scrubs the heap it gives
// up, as an application write, before a checkpoint can observe it. After
// a store at heap+0x1000, brk down to heap+0x10, a checkpoint round trip,
// and brk back up on both sides, the live and the restored process both
// read zero there, and the lowering moved the heap's store generation.
func TestBrkScrubsLoweredHeap(t *testing.T) {
	exe := buildExe(t, ckptLoopSrc)
	k := newKernel(t, WithMode(Permissive))
	p, err := k.Spawn(exe, "brk")
	if err != nil {
		t.Fatal(err)
	}
	heap := heapStartOf(p)
	brk := func(p *Process, addr uint32) {
		t.Helper()
		if got := k.sysBrk(p, addr); got != addr {
			t.Fatalf("brk(%#x) = %#x", addr, got)
		}
	}
	brk(p, heap+0x2000)
	if err := p.Mem.UserWrite(heap+0x1000, []byte{0xaa}); err != nil {
		t.Fatal(err)
	}
	gen, _ := p.Mem.SpanGeneration(heap, 0x10)
	live := pages(p)
	brk(p, heap+0x10)
	if g, _ := p.Mem.SpanGeneration(heap, 0x10); g == gen {
		t.Fatal("lowering the break left the heap's store generation unchanged")
	}
	if pages(p) != live-1 {
		t.Fatalf("lowering the break left %d pages, want %d", pages(p), live-1)
	}
	blob, err := k.Checkpoint(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := k.Restore(exe, "brk", blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*Process{"live": p, "restored": r} {
		brk(q, heap+0x2000)
		if b, err := q.Mem.KernelRead(heap+0x1000, 1); err != nil || b[0] != 0 {
			t.Errorf("%s process reads %v, %v at heap+0x1000 after the break grew back; want 0", name, b, err)
		}
	}
}

// TestCheckpointRoundTripAllocs bounds the memory a paged checkpoint and
// its restore allocate by the blob size plus 64 KiB: the checkpoint
// allocates no page of the live process, and the restored process holds
// only the pages that hold data, not the captured process's footprint.
// The round trip's whole heap allocation is logged alongside: it also
// carries the encoder's, decoder's and swap device's copies of the
// blob's bytes.
func TestCheckpointRoundTripAllocs(t *testing.T) {
	k, p := ckptSizeProc(t, true)
	pages, _ := p.Mem.Footprint()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	blob, err := k.Checkpoint(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := k.Restore(p.prog.file, "bench", blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	if after, _ := p.Mem.Footprint(); after != pages {
		t.Fatalf("checkpoint took the live memory from %d to %d page bytes", pages, after)
	}
	rpages, bookkeeping := r.Mem.Footprint()
	t.Logf("%.1f KiB blob: the restored memory holds %.1f KiB (the live one %.1f KiB); the round trip allocates %.1f KiB in all",
		float64(len(blob))/1024, float64(rpages+bookkeeping)/1024, float64(pages)/1024, float64(ms.TotalAlloc-before)/1024)
	if rpages+bookkeeping > len(blob)+64<<10 {
		t.Fatalf("restored memory holds %d KiB, budget is the %d KiB blob plus 64 KiB", (rpages+bookkeeping)>>10, len(blob)>>10)
	}
}
