package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"

	"asc/internal/bench"
	"asc/internal/kernel"
	"asc/internal/libc"
	"asc/internal/workload"
)

// source is one corpus program before the toolchain sees it.
type source struct {
	name string
	text string
}

// jobSpec is one job: a process of corpus program prog, from Spawn to
// exit, fed stdin. A paged job is checkpointed and restored once, at half
// its permissive-baseline cycle count.
type jobSpec struct {
	prog  int
	stdin string
	ckpt  bool
}

// workloadDef is one benchmark input set. Its job list is exactly one
// System epoch: every epoch boots a fresh core.System, runs the whole list
// on it, and drops it. Exited processes are never reaped, so a System's
// heap grows with every job it runs; fixing the epoch length keeps that
// growth part of the workload's definition.
type workloadDef struct {
	name string
	// clients is the number of closed-loop goroutines calling into one
	// System.
	clients int
	// opts are the kernel options of the enforcing System and of the
	// permissive baseline.
	opts []kernel.Option
	// racy marks a workload whose clients race on shared kernel state (the
	// fleet verify cache): per-job cycles and the hit/adopt/miss split may
	// vary, only totals and outputs repeat exactly.
	racy bool
	gen  func(r *rand.Rand) ([]source, []jobSpec)
}

// pagedBudget is the resident-page budget of the paged workload's kernels.
const pagedBudget = 16

var workloads = []workloadDef{
	// The vm interpreter dominates and verification is a few percent: an
	// interpreter or spawn gain shows here, a verify or cache change should
	// not.
	{name: "macro", clients: 1, gen: genMacro},
	// Every call takes the full verify path and spawn is amortised: where
	// verify-path gains show.
	{name: "syscall", clients: 1, gen: genSyscall},
	// Spawn, shared-cache adopts, first-level hits and group-commit
	// flushes: decides whether the fast-path layers earn their code.
	{
		name: "fleet", clients: 2, racy: true, gen: genFleet,
		opts: []kernel.Option{kernel.WithVerifyCache(), kernel.WithBatchVerify(bench.BatchDepth)},
	},
	// The pager, swap seal/open and vfs frame I/O dominate; verification
	// is nearly idle. The only cover for the sealing code.
	{
		name: "paged", clients: 1, gen: genPaged,
		opts: []kernel.Option{kernel.WithPagedMemory(pagedBudget)},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// macroScale is the share of the paper's iteration count a macro job runs.
// At 1 a job is the paper's Table 6 run.
const macroScale = 0.25

// jitter scales n by a seeded factor within ±3%. Seeds vary the inputs
// while every seed's job list carries about the same work, so that runs
// on different seeds measure the same thing.
func jitter(r *rand.Rand, n int) int {
	return max(2, int(float64(n)*(0.97+0.06*r.Float64())+0.5))
}

func shuffle(r *rand.Rand, jobs []jobSpec) {
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
}

// genMacro runs each Table 5 program twice at a seeded iteration count,
// in a seeded order. Epoch: 18 jobs.
func genMacro(r *rand.Rand) ([]source, []jobSpec) {
	var srcs []source
	var jobs []jobSpec
	for i, spec := range workload.PerfSuite() {
		iters := jitter(r, int(float64(spec.Iters)*macroScale))
		srcs = append(srcs, source{name: spec.Name, text: spec.Source(iters)})
		jobs = append(jobs, jobSpec{prog: i}, jobSpec{prog: i})
	}
	shuffle(r, jobs)
	return srcs, jobs
}

// loopCalls are the Table 4 calls (keyed as bench.Table4 names them), the
// corpus names of their loops, and the iterations of a syscall-workload
// loop job. The iterations give every loop job about 50M enforced modeled
// cycles, as bison, calc and tar take on their inputs: with one call eight
// times dearer than the rest, its two jobs would make up the slowest 11%
// and job_tail_ms (p90) would sit at their edge.
var loopCalls = []struct {
	call, name string
	iters      int
}{
	{"getpid", "loop-getpid", 10000},
	{"gettimeofday", "loop-gettimeofday", 10000},
	{"read(4096)", "loop-pread", 4600},
	{"write(4096)", "loop-pwrite", 1150},
	{"brk", "loop-brk", 10000},
}

// genSyscall runs the Table 4 call loops at seeded lengths and the four
// policy-study programs on long seeded rare-command inputs, each twice,
// in a seeded order. Epoch: 18 jobs.
func genSyscall(r *rand.Rand) ([]source, []jobSpec) {
	var srcs []source
	var jobs []jobSpec
	for _, lc := range loopCalls {
		jobs = append(jobs, jobSpec{prog: len(srcs)}, jobSpec{prog: len(srcs)})
		srcs = append(srcs, source{name: lc.name, text: loopSource(lc.call, jitter(r, lc.iters))})
	}
	for _, name := range workload.Names() {
		spec := mustProgram(name)
		for range 2 {
			jobs = append(jobs, jobSpec{prog: len(srcs), stdin: rareInput(r, spec, jitter(r, 1500))})
		}
		srcs = append(srcs, source{name: name, text: spec.Source(libc.Linux)})
	}
	shuffle(r, jobs)
	return srcs, jobs
}

// genFleet runs six short instances of each of four binaries, in a seeded
// order: bison and calc on their common path, and getpid and gettimeofday
// loops of seeded length. Epoch: 24 jobs.
//
// Every fleet binary's output and call count must not depend on what its
// siblings do, since two clients race on one filesystem and one PID
// space. That rules out tar and screen (they report stat results of
// files siblings create, or read stdin through a dup2'd descriptor) and
// the rare handlers (kill acts on a PID constant).
func genFleet(r *rand.Rand) ([]source, []jobSpec) {
	var srcs []source
	for _, name := range []string{"bison", "calc"} {
		srcs = append(srcs, source{name: name, text: mustProgram(name).Source(libc.Linux)})
	}
	for _, lc := range loopCalls[:2] {
		srcs = append(srcs, source{name: lc.name, text: loopSource(lc.call, jitter(r, 200))})
	}
	var jobs []jobSpec
	for prog := range srcs {
		for range 6 {
			jobs = append(jobs, jobSpec{prog: prog, stdin: workload.ScratchSeed})
		}
	}
	shuffle(r, jobs)
	return srcs, jobs
}

// genPaged runs six read-sweep and six write-sweep jobs whose working
// sets span 2-8x the resident budget, each sweeping three times with a
// checkpoint round trip. Epoch: 12 jobs.
func genPaged(r *rand.Rand) ([]source, []jobSpec) {
	srcs := []source{
		{name: "sweep-read", text: sweepSource(false)},
		{name: "sweep-write", text: sweepSource(true)},
	}
	var jobs []jobSpec
	for prog := range srcs {
		for i := range 6 {
			var in [8]byte
			binary.LittleEndian.PutUint32(in[0:], uint32(jitter(r, pagedBudget*(2+i*6/5))))
			binary.LittleEndian.PutUint32(in[4:], 3)
			jobs = append(jobs, jobSpec{prog: prog, stdin: string(in[:]), ckpt: true})
		}
	}
	shuffle(r, jobs)
	return srcs, jobs
}

func mustProgram(name string) *workload.Spec {
	spec, err := workload.Program(name, libc.Linux)
	if err != nil {
		panic(err) // workload.Names lists only known programs
	}
	return spec
}

// rareInput is a policy-study program's stdin: the scratch seed, then n
// rare-command bytes drawn from the program's handlers.
func rareInput(r *rand.Rand, spec *workload.Spec, n int) string {
	var cmds []byte
	for c := range spec.Rare {
		cmds = append(cmds, c)
	}
	sort.Slice(cmds, func(i, j int) bool { return cmds[i] < cmds[j] })
	b := []byte(workload.ScratchSeed)
	for range n {
		b = append(b, cmds[r.IntN(len(cmds))])
	}
	return string(b)
}

// loopSource is a Table 4 call loop of n iterations, instruction for
// instruction the loop bench.Table4 differences (startup and I/O set-up
// cancel out between two lengths).
func loopSource(call string, n int) string {
	body := map[string]string{
		"getpid": "        CALL getpid\n",
		"gettimeofday": `        MOVI r1, buf
        CALL gettimeofday
`,
		"brk": `        MOVI r1, 0
        CALL brk
`,
		"read(4096)": `        MOV r1, r10
        MOVI r2, buf
        MOVI r3, 4096
        MOVI r4, 0
        CALL pread
`,
		"write(4096)": `        MOV r1, r11
        MOVI r2, buf
        MOVI r3, 4096
        MOVI r4, 0
        CALL pwrite
`,
		"empty": "",
	}[call]
	return fmt.Sprintf(`        .text
        .global main
main:
        PUSH fp
        MOV fp, sp
        MOVI r1, inpath
        MOVI r2, 0
        MOVI r3, 0
        CALL open
        MOV r10, r0
        MOVI r1, outpath
        MOVI r2, 0x41
        MOVI r3, 420
        CALL open
        MOV r11, r0
        MOVI r12, %d
.loop:
%s        ADDI r12, r12, -1
        MOVI r9, 0
        BNE r12, r9, .loop
        POP fp
        MOVI r0, 0
        RET
        .rodata
inpath: .asciz "/data/micro.in"
outpath: .asciz "/tmp/micro.out"
        .bss
buf:    .space 4096
`, n, body)
}

// sweepSource walks an mmap working set. Its stdin holds two words: the
// working-set size in pages and the number of sweeps. A write sweep
// stores into every page on every sweep; a read sweep fills the pages
// once and then only loads. Either way the program writes a checksum of
// what it loaded to stdout, so a page lost or corrupted on the swap
// device changes the output.
func sweepSource(write bool) string {
	body := `        LOAD r7, [r10+0]
        ADD r11, r11, r7
`
	fill := `        MOV r10, r8
        MOV r9, r13
.fill:
        STORE [r10+0], r9
        ADDI r10, r10, 4096
        ADDI r9, r9, -1
        MOVI r7, 0
        BNE r9, r7, .fill
`
	if write {
		body = `        ADD r7, r12, r9
        STORE [r10+0], r7
        LOAD r7, [r10+0]
        ADD r11, r11, r7
`
		fill = ""
	}
	return `        .text
        .global main
main:
        PUSH fp
        MOV fp, sp
        MOVI r1, 0
        MOVI r2, params
        MOVI r3, 8
        CALL read
        MOVI r7, params
        LOAD r13, [r7+0]
        LOAD r12, [r7+4]
        MOVI r1, 0
        MULI r2, r13, 4096
        MOVI r3, 3              ; PROT_READ|PROT_WRITE
        MOVI r4, 0x22           ; MAP_PRIVATE|MAP_ANONYMOUS
        MOVI r5, 0
        CALL mmap
        MOV r8, r0
        MOVI r9, 0
        BLT r8, r9, .done
        MOVI r11, 0
` + fill + `.sweep:
        MOV r10, r8
        MOV r9, r13
.page:
` + body + `        ADDI r10, r10, 4096
        ADDI r9, r9, -1
        MOVI r7, 0
        BNE r9, r7, .page
        ADDI r12, r12, -1
        MOVI r7, 0
        BNE r12, r7, .sweep
        MOVI r7, csum
        STORE [r7+0], r11
        MOVI r1, 1
        MOVI r2, csum
        MOVI r3, 4
        CALL write
        MOVI r7, params
        LOAD r2, [r7+0]
        MULI r2, r2, 4096
        MOV r1, r8
        CALL munmap
.done:
        POP fp
        MOVI r0, 0
        RET
        .bss
params: .space 8
csum:   .space 4
`
}
