package kernel

import (
	"runtime"
	"sort"
	"testing"

	"asc/internal/asm"
	"asc/internal/binfmt"
	"asc/internal/installer"
	"asc/internal/isa"
	"asc/internal/libc"
	"asc/internal/linker"
	"asc/internal/policy"
	"asc/internal/sys"
	"asc/internal/vfs"
)

// benchLoopSrc executes getpid in a tight loop; the per-iteration work is
// dominated by the trap handler (and, for the authenticated variant, the
// verification path).
const benchLoopSrc = `
        .text
        .global main
main:
        MOVI r12, 1000
.loop:
        CALL getpid
        ADDI r12, r12, -1
        MOVI r9, 0
        BNE r12, r9, .loop
        MOVI r0, 0
        RET
`

func buildBenchExe(b *testing.B, authenticated bool) *binfmt.File {
	b.Helper()
	obj, err := asm.Assemble("b.s", benchLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	lib, err := libc.Objects(libc.Linux)
	if err != nil {
		b.Fatal(err)
	}
	exe, err := linker.Link([]*binfmt.File{obj}, lib)
	if err != nil {
		b.Fatal(err)
	}
	if !authenticated {
		return exe
	}
	out, _, _, err := installer.Install(exe, "bench", installer.Options{Key: testKey})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

func benchRun(b *testing.B, authenticated bool, opts ...Option) {
	b.Helper()
	bin := buildBenchExe(b, authenticated)
	mode := Permissive
	var key []byte
	if authenticated {
		mode, key = Enforce, testKey
	}
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := New(vfs.New(), key, append([]Option{WithMode(mode)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		p, err := k.Spawn(bin, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := k.Run(p, 1_000_000_000); err != nil {
			b.Fatal(err)
		}
		if p.Killed {
			b.Fatalf("killed: %v", p.KilledBy)
		}
		cycles = p.CPU.Cycles
	}
	b.ReportMetric(1000, "syscalls/op")
	b.ReportMetric(float64(cycles)/1000, "cycles/call")
}

// BenchmarkSyscallPlain measures 1,000 unverified traps per op.
func BenchmarkSyscallPlain(b *testing.B) { benchRun(b, false) }

// BenchmarkSyscallVerified measures 1,000 fully verified authenticated
// calls per op (call MAC + predecessor AS + memory-checker update).
func BenchmarkSyscallVerified(b *testing.B) { benchRun(b, true) }

// BenchmarkSyscallVerifiedCached measures the same workload with the
// verification cache: after the first trap per site, every call is a
// cache hit (generation compares + byte compares) plus the uncacheable
// memory-checker update.
func BenchmarkSyscallVerifiedCached(b *testing.B) { benchRun(b, true, WithVerifyCache()) }

// BenchmarkSpawn measures loading the authenticated benchmark binary
// into a new process: address space, section copies, segment map, and
// the check that memory holds the binary's decoded text before fetch
// reads it. The text is decoded once per kernel, at its first Spawn. A
// fresh kernel replaces the process table every 1024 spawns, off the
// clock, so retained processes do not pile up.
func BenchmarkSpawn(b *testing.B) {
	bin := buildBenchExe(b, true)
	var k *Kernel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			var err error
			if k, err = New(vfs.New(), testKey, WithMode(Enforce)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := k.Spawn(bin, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// spawnAllocBudget bounds the heap one Spawn of the benchmark binary may
// allocate. The address space is allocated as it is touched and the text
// is decoded once per binary, so a spawn pays for the one page its
// sections share plus the process's bookkeeping: 5.9 KiB measured
// (amd64, go test and go test -race alike), budgeted with a 2 KiB margin.
const spawnAllocBudget = 8 << 10

// TestSpawnAllocs pins Spawn's heap cost: the median TotalAlloc delta
// over several spawns must stay within spawnAllocBudget, and every
// spawn of the binary fetches from the one decoded text.
func TestSpawnAllocs(t *testing.T) {
	bin := buildAuthExe(t, benchLoopSrc)
	k, err := New(vfs.New(), testKey, WithMode(Enforce))
	if err != nil {
		t.Fatal(err)
	}
	first, err := k.Spawn(bin, "bench") // warm lazily built kernel state
	if err != nil {
		t.Fatal(err)
	}
	second, err := k.Spawn(bin, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if first.Mem.Text() == nil || first.Mem.Text() != second.Mem.Text() {
		t.Fatalf("two spawns fetch from decoded texts %p and %p, want one shared", first.Mem.Text(), second.Mem.Text())
	}
	deltas := make([]uint64, 9)
	var ms runtime.MemStats
	for i := range deltas {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := k.Spawn(bin, "bench"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		deltas[i] = ms.TotalAlloc - before
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
	med := deltas[len(deltas)/2]
	t.Logf("Spawn allocates %.1f KiB (median of %d)", float64(med)/1024, len(deltas))
	if med > spawnAllocBudget {
		t.Fatalf("Spawn allocates %d KiB, budget is %d KiB", med>>10, spawnAllocBudget>>10)
	}
}

// benchVerifySetup loads the authenticated benchmark binary and steps the
// CPU to the first ASYSCALL, leaving the registers exactly as the trap
// handler would see them. It returns everything needed to invoke verify
// repeatedly: the kernel, process, call number, site, and a restore
// function that rewinds the control-flow state between invocations.
func benchVerifySetup(t testing.TB, opts ...Option) (*Kernel, *Process, uint16, uint32, func()) {
	t.Helper()
	var bin *binfmt.File
	if b, ok := t.(*testing.B); ok {
		bin = buildBenchExe(b, true)
	} else {
		bin = buildAuthExe(t.(*testing.T), benchLoopSrc)
	}
	k, err := New(vfs.New(), testKey, append([]Option{WithMode(Enforce)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(bin, "bench")
	if err != nil {
		t.Fatal(err)
	}
	for {
		raw, err := p.Mem.KernelRead(p.CPU.PC, isa.InstrSize)
		if err != nil {
			t.Fatal(err)
		}
		in, err := isa.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == isa.OpASYSCALL {
			break
		}
		if err := p.CPU.Step(); err != nil {
			t.Fatal(err)
		}
	}
	num := uint16(p.CPU.Regs[isa.R0])
	site := p.CPU.PC
	// Snapshot the memory-checker state so repeated verifications replay
	// the same transition.
	recAddr := p.CPU.Regs[isa.R6]
	recBytes, err := p.Mem.KernelRead(recAddr, policy.AuthRecordSize)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := policy.DecodeAuthRecord(recBytes)
	if err != nil {
		t.Fatal(err)
	}
	counter0 := p.counter
	state0 := []byte(nil)
	if rec.Desc.ControlFlow() {
		raw, err := p.Mem.KernelRead(rec.LbPtr, 4+16)
		if err != nil {
			t.Fatal(err)
		}
		state0 = append(state0, raw...)
	}
	restore := func() {
		p.counter = counter0
		if state0 != nil {
			if err := p.Mem.KernelWrite(rec.LbPtr, state0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return k, p, num, site, restore
}

// verifyAllocs measures steady-state heap allocations of one full
// (uncached) verification.
func verifyAllocs(t testing.TB) float64 {
	k, p, num, site, restore := benchVerifySetup(t)
	sig, sigOK := sys.Lookup(num)
	return testing.AllocsPerRun(200, func() {
		if reason, ok := k.verify(p, num, site, sig, sigOK); !ok {
			t.Fatalf("verify failed: %v", reason)
		}
		restore()
	})
}

// TestVerifyAllocs pins the per-trap heap budget of the verification
// path: at most 2 allocations per fully verified call in steady state.
func TestVerifyAllocs(t *testing.T) {
	if allocs := verifyAllocs(t); allocs > 2 {
		t.Fatalf("verify allocates %.1f times per call, budget is 2", allocs)
	}
}

// BenchmarkVerifyAllocs reports the allocation count of the verification
// path itself (no VM execution around it).
func BenchmarkVerifyAllocs(b *testing.B) {
	k, p, num, site, restore := benchVerifySetup(b)
	sig, sigOK := sys.Lookup(num)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reason, ok := k.verify(p, num, site, sig, sigOK); !ok {
			b.Fatalf("verify failed: %v", reason)
		}
		restore()
	}
}

// BenchmarkCheckpoint measures one sealed checkpoint and its restore per
// op, for the getpid loop on a flat kernel and for a paged process at a
// budget of 16 pages, and reports the blob size. A fresh kernel and
// process replace the restored ones every 256 ops, off the clock.
func BenchmarkCheckpoint(b *testing.B) {
	for _, paged := range []bool{false, true} {
		name := "flat"
		if paged {
			name = "paged"
		}
		b.Run(name, func(b *testing.B) {
			var k *Kernel
			var p *Process
			var blob []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 0 {
					b.StopTimer()
					k, p = ckptSizeProc(b, paged)
					b.StartTimer()
				}
				var err error
				if blob, err = k.Checkpoint(p, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
				r, err := k.Restore(p.prog.file, "bench", blob, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				k.unregister(r)
			}
			b.ReportMetric(float64(len(blob))/1024, "blob_KiB")
		})
	}
}
