// Package kernel implements the operating system of the simulated
// platform: processes, a system call table over the in-memory VFS, and —
// the paper's kernel-side contribution — the authenticated system call
// verification path in the trap handler (Section 3.4).
//
// The verification path mirrors the paper exactly:
//
//  1. Reconstruct the encoded call from the actual trap state and check
//     the call MAC.
//  2. Check the integrity of each authenticated string argument.
//  3. Check the control-flow policy using the online memory checker:
//     the {lastBlock, lbMAC} state lives in application memory and is
//     validated against an in-kernel per-process counter nonce, then
//     updated.
//
// Any failure terminates the process, logs the call, and records an audit
// entry. Unauthenticated calls from authenticated binaries are also
// blocked (the paper's shellcode defense).
package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"asc/internal/binfmt"
	"asc/internal/captrack"
	"asc/internal/isa"
	"asc/internal/mac"
	anet "asc/internal/net"
	"asc/internal/pattern"
	"asc/internal/policy"
	"asc/internal/sys"
	"asc/internal/vfs"
	"asc/internal/vm"
)

// Mode selects the enforcement behaviour.
type Mode int

// Enforcement modes.
const (
	// Permissive executes all system calls without checking. Used for
	// baselines and for tracing training runs.
	Permissive Mode = iota + 1
	// Enforce verifies authenticated calls and kills processes on any
	// violation, including plain SYSCALLs from authenticated binaries.
	Enforce
)

// Personality selects OS-specific syscall behaviour.
type Personality int

// Personalities.
const (
	// Linux rejects the generic indirect syscall.
	Linux Personality = iota + 1
	// OpenBSD dispatches __syscall(n, ...) to syscall n.
	OpenBSD
)

// Defaults for process construction.
const (
	DefaultMemSize   = 4 << 20
	DefaultStackSize = 256 << 10
	// maxFDs bounds one process's descriptor table. Sized for the
	// sharded-service benchmarks, where a single event-loop replica
	// holds an accepted connection per client in a 10k-client cell.
	maxFDs = 16384
)

// KillReason classifies why the monitor terminated a process.
type KillReason string

// Kill reasons recorded in the audit log.
const (
	KillUnauthenticated KillReason = "unauthenticated system call"
	KillBadRecord       KillReason = "malformed auth record"
	KillBadCallMAC      KillReason = "call MAC mismatch"
	KillBadString       KillReason = "authenticated string MAC mismatch"
	KillBadState        KillReason = "policy state MAC mismatch (memory checker)"
	KillBadPredecessor  KillReason = "control flow violation (predecessor not allowed)"
	KillBadPattern      KillReason = "argument does not match authenticated pattern"
	KillBadCapability   KillReason = "file descriptor is not a live capability"
	KillSymlinkRace     KillReason = "path argument resolves outside its policy name (symlink race)"
	KillSwapSeal        KillReason = "swap page MAC mismatch"
	KillSwapReplay      KillReason = "stale swap page (generation mismatch)"
)

// Enforcement selects the kernel's response to a verification failure,
// seccomp-style. It is a per-process property (initialized from the
// kernel default at Spawn) so one machine can run kill-on-violation
// daemons next to audit-mode workloads being ramped in.
type Enforcement int

// Enforcement modes.
const (
	// EnforceKill terminates the process (the paper's behaviour, and the
	// default).
	EnforceKill Enforcement = iota
	// EnforceDeny refuses the violating call with -EPERM and lets the
	// process continue. The call does not execute.
	EnforceDeny
	// EnforceAudit records the violation and executes the call anyway
	// (observe-only ramp-in mode).
	EnforceAudit
)

func (e Enforcement) String() string {
	switch e {
	case EnforceDeny:
		return "deny"
	case EnforceAudit:
		return "audit"
	default:
		return "kill"
	}
}

// Action returns the audit-record action for this mode.
func (e Enforcement) Action() Action {
	switch e {
	case EnforceDeny:
		return ActionDeny
	case EnforceAudit:
		return ActionAudit
	default:
		return ActionKill
	}
}

// Injector is the fault-injection hook interface (internal/fault). A
// kernel with no injector behaves exactly as before; the hooks exist so
// a deterministic campaign can perturb the platform at well-defined
// points of the verification path.
type Injector interface {
	// BeforeVerify runs at every authenticated trap before verification,
	// with kernel-privileged access to the process. recAddr is the auth
	// record address the call passed in R6.
	BeforeVerify(p *Process, num uint16, site uint32, recAddr uint32)
	// NonceUpdate is consulted when the memory checker advances the
	// per-process counter after a successful control-flow check. It
	// returns the number of increments actually applied to the in-kernel
	// counter: 1 is a faithful update, 0 a dropped update, 2 a
	// duplicated one. The state MAC written to application memory is
	// always computed for the intended (single-increment) counter, so a
	// perturbed return desynchronizes kernel and application state.
	NonceUpdate(p *Process) int
}

// TraceEntry records one executed system call (used for Systrace-style
// training and for debugging).
type TraceEntry struct {
	Num  uint16
	Site uint32
	Args [sys.MaxArgs]uint32
	Ret  uint32
}

// Kernel is one simulated machine.
type Kernel struct {
	FS          *vfs.FS
	Mode        Mode
	Personality Personality
	Costs       CostModel

	// NormalizePaths enables the §5.4 defense: a policy-constrained path
	// argument must normalize (all symbolic links resolved) to itself.
	// An attacker who plants a symlink at a policy-approved name — e.g.
	// /tmp/foo -> /etc/passwd — is caught before the call proceeds.
	NormalizePaths bool

	// RequireAuthenticated extends enforcement to every process: system
	// calls from binaries the installer has not transformed are also
	// killed. This is the paper's full-system deployment ("the system
	// as a whole is protected once all binaries that run in user space
	// have been transformed", §3.3); without it, enforcement applies
	// per-binary.
	RequireAuthenticated bool

	// MonitorOverhead, when non-nil, is consulted on every system call
	// of a *non-authenticated* binary to model alternative monitors
	// (e.g. a user-space policy daemon); it returns extra cycles and
	// whether the call is allowed.
	MonitorOverhead func(p *Process, num uint16, site uint32) (extra uint64, allow bool)

	// Cache selects the verification-cache mode. Once a call site passes
	// the call MAC and string MAC checks, later traps at the same site
	// skip the AES work when the record bytes and every MAC-checked
	// buffer are provably unchanged (store-generation counters in
	// internal/vm; any application store to a covering segment forces
	// re-validation). CacheShared additionally publishes verified
	// entries kernel-wide, keyed by program tag and site, so sibling
	// processes of the same binary adopt them with a byte compare
	// instead of re-running the AES verification. The control-flow
	// memory checker and the capability-set check stay exact on every
	// call.
	Cache CacheMode

	// Net, when non-nil, backs the socket system call family with the
	// in-memory loopback network (internal/net): ports, listeners, and
	// message-framed streams with real data movement and blocking
	// semantics. Without it the socket calls keep their historical
	// validate-and-succeed stub behaviour, so existing single-process
	// workloads are unaffected.
	Net *anet.Network

	key   *mac.Keyed
	Audit AuditRing

	// mu guards the process table and PID allocation; everything else a
	// concurrent Run needs is either immutable after New, per-process, or
	// synchronized on its own (the audit ring, the pattern cache, the
	// VFS). One Kernel may drive many processes from many goroutines, but
	// each individual Process must be driven by one goroutine at a time.
	mu      sync.Mutex
	nextPID int
	procs   map[int]*Process

	// enforcement is the default Enforcement given to spawned processes.
	enforcement Enforcement
	// injector, when non-nil, receives the fault-injection hooks. Fault
	// engines are stateful and not synchronized: a kernel with an
	// injector must run one process at a time (the campaign's parallel
	// mode runs whole kernels, not processes, in parallel).
	injector Injector

	// patterns caches compiled patterns by the MAC tag of their source
	// bytes. A tag is only used as a key after the contents were verified
	// against it, so equal tags imply equal (already-authenticated)
	// sources; pattern.Parse then runs once per distinct pattern. The
	// cache is shared by every process of the kernel and is read-mostly,
	// hence the sync.Map.
	patterns sync.Map // mac.Tag -> *pattern.Pattern

	// programs holds one record per spawned executable, by identity
	// (installed executables are immutable): its decoded text, which
	// every instance shares, and its checkpoint program tag.
	programs sync.Map // *binfmt.File -> *program

	// shared is the fleet-wide verification cache (CacheShared): one
	// immutable entry per verified {program tag, site}, adopted by every
	// process running that binary. Entries are verified before being
	// published and never mutated afterwards, so concurrent adopters
	// only ever read them; LoadOrStore keeps exactly one per key.
	shared sync.Map // sharedKey -> *sharedEntry

	// batchN is the group-commit burst size for control-flow state
	// updates; values below 2 keep the classic write-per-call checker.
	batchN int

	// pagedBudget is the resident-page budget for the demand-paged mmap
	// arena; 0 disables paged mode entirely (mmap stays the historical
	// brk-bump allocator and every access takes the flat fast path).
	pagedBudget int
}

// CacheMode selects how verification results are cached across traps.
type CacheMode int

const (
	// CacheOff re-verifies every trap (the paper's baseline).
	CacheOff CacheMode = iota
	// CachePerProcess keys verified sites per process.
	CachePerProcess
	// CacheShared keys verified sites kernel-wide by program tag, so
	// every process of one binary shares a single verification.
	CacheShared
)

// Option configures a Kernel.
type Option func(*Kernel)

// WithMode sets the enforcement mode.
func WithMode(m Mode) Option { return func(k *Kernel) { k.Mode = m } }

// WithPersonality sets the OS personality.
func WithPersonality(p Personality) Option { return func(k *Kernel) { k.Personality = p } }

// WithRequireAuthenticated enables full-system enforcement: only
// installer-transformed binaries may make system calls.
func WithRequireAuthenticated() Option {
	return func(k *Kernel) { k.RequireAuthenticated = true }
}

// WithNormalizePaths enables the §5.4 symlink-race defense on
// policy-constrained path arguments.
func WithNormalizePaths() Option {
	return func(k *Kernel) { k.NormalizePaths = true }
}

// WithVerifyCache enables the site-keyed verification cache in its
// fleet-shared form (CacheShared). For a single process this behaves
// exactly like the per-process cache; across processes of one binary it
// shares the verified entries.
func WithVerifyCache() Option {
	return func(k *Kernel) { k.Cache = CacheShared }
}

// WithCacheMode selects the verification-cache mode explicitly.
func WithCacheMode(m CacheMode) Option {
	return func(k *Kernel) { k.Cache = m }
}

// WithBatchVerify enables group-committed control-flow verification:
// state updates from up to n consecutive authenticated calls are queued
// and flushed with one batched CMAC pass. n below 2 keeps the classic
// write-per-call memory checker.
func WithBatchVerify(n int) Option {
	return func(k *Kernel) { k.batchN = n }
}

// WithEnforcement sets the default violation response for spawned
// processes (overridable per process via Process.Enforcement).
func WithEnforcement(e Enforcement) Option {
	return func(k *Kernel) { k.enforcement = e }
}

// WithAuditCapacity sizes the violation ring (default
// DefaultAuditCapacity).
func WithAuditCapacity(n int) Option {
	return func(k *Kernel) { k.Audit.SetCapacity(n) }
}

// WithInjector installs a fault injector on the verification path.
func WithInjector(i Injector) Option {
	return func(k *Kernel) { k.injector = i }
}

// WithNetwork attaches a loopback network, switching the socket system
// call family from validate-and-succeed stubs to real semantics: data
// movement, bounded buffers, and blocking integrated with the
// scheduler gate. Kernels sharing one Network share its port namespace.
func WithNetwork(n *anet.Network) Option {
	return func(k *Kernel) { k.Net = n }
}

// WithPagedMemory enables the demand-paged mmap arena with a resident
// budget of n pages (minimum 4): mmap/munmap/mprotect manage page-table
// mappings, accesses beyond the budget evict through the clock policy to
// a VFS-backed swap device, and — on kernels holding a MAC key — every
// evicted page is sealed with a per-page CMAC plus generation counter so
// bit flips and stale-page replay are detected at fault-in.
func WithPagedMemory(n int) Option {
	if n < minPageBudget {
		n = minPageBudget
	}
	return func(k *Kernel) { k.pagedBudget = n }
}

// New creates a kernel. The key is the MAC key shared with the trusted
// installer; it may be nil when the kernel never enforces.
func New(fs *vfs.FS, key []byte, opts ...Option) (*Kernel, error) {
	k := &Kernel{
		FS:          fs,
		Mode:        Enforce,
		Personality: Linux,
		Costs:       DefaultCosts,
		nextPID:     1,
		procs:       make(map[int]*Process),
	}
	if key != nil {
		mk, err := mac.New(key)
		if err != nil {
			return nil, fmt.Errorf("kernel: %w", err)
		}
		k.key = mk
	}
	for _, o := range opts {
		o(k)
	}
	if k.Mode == Enforce && k.key == nil {
		return nil, errors.New("kernel: enforcement requires a MAC key")
	}
	return k, nil
}

// fdKind distinguishes file descriptor flavours.
type fdKind int

const (
	fdFile fdKind = iota + 1
	fdConsole
	fdPipeR
	fdPipeW
	fdSocket
)

type fdEntry struct {
	kind   fdKind
	node   *vfs.Node
	path   string
	offset uint32
	pipe   *pipeBuf
	sock   *socket
}

type pipeBuf struct {
	data   []byte
	closed bool
}

type socket struct {
	domain, typ, proto uint32
	// sent captures payloads when no network is attached (legacy stub
	// behaviour); with a network, bytes move through conn instead.
	sent  [][]byte
	bound bool
	port  uint16
	lis   *anet.Listener
	conn  *anet.Conn
	// nonblock is the O_NONBLOCK status flag (fcntl F_SETFL): blocking
	// entry points get a nil gate, so would-park operations fail with
	// EAGAIN instead.
	nonblock bool
}

// Process is one running program.
type Process struct {
	PID      int
	Name     string
	CPU      *vm.CPU
	Mem      *vm.Memory
	Exited   bool
	Code     uint32
	Killed   bool
	KilledBy KillReason

	// Enforcement selects this process's violation response; it is
	// initialized from the kernel default at Spawn and may be changed
	// between runs (per-process graded enforcement).
	Enforcement Enforcement

	// DeniedCount and AuditedCount tally violations that did not kill
	// the process (Deny and Audit modes).
	DeniedCount  uint64
	AuditedCount uint64

	kern *Kernel
	prog *program

	fds   []*fdEntry
	cwd   string
	brk   uint32
	umask uint32

	authenticated bool
	counter       uint64            // memory-checker nonce
	fdTracker     *captrack.Tracker // §5.3 capability set, nil unless installed

	// pager services page faults on the demand-paged mmap arena; nil
	// unless the kernel runs WithPagedMemory (see paging.go).
	pager *pager

	// gate is the scheduler's run-slot semaphore; blocking socket calls
	// release it while parked (see internal/net). Nil outside gated
	// fleets: socket calls then fail with EAGAIN instead of blocking.
	gate anet.Gate

	// Console I/O.
	Stdin    []byte
	stdinPos int
	Stdout   []byte

	// Statistics.
	SyscallCount    uint64
	VerifyCount     uint64
	VerifyAESBlocks uint64

	// Verification-cache statistics (all zero unless the kernel runs
	// with a verify cache). The fields are atomics bracketed by the
	// cacheSeq seqlock so a monitor goroutine sampling a running fleet
	// gets consistent snapshots — read them through CacheStats(), never
	// field by field.
	cacheSeq    atomic.Uint64 // odd while an update is in flight
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	cacheInvals atomic.Uint64
	cacheShares atomic.Uint64

	// Tracing (Permissive mode training runs).
	Trace   []TraceEntry
	DoTrace bool

	sigHandlers map[uint32]uint32

	// vcache is the first-level, site-keyed verification cache (nil
	// until first fill): per-process generation snapshots over shared
	// (or privately filled) verified entries.
	vcache map[uint32]*procEntry

	// commit is the control-flow group-commit queue (WithBatchVerify).
	commit cfCommit

	// Reusable trap-handler scratch. The verification path is the
	// hottest kernel code; all of its per-call slices live here so a
	// steady-state verify performs no heap allocation (guarded by
	// TestVerifyAllocs / BenchmarkVerifyAllocs).
	scratchArgs  []policy.EncodedArg
	scratchStr   []pendingString
	scratchPat   []pendingPattern
	scratchSpans []genSpan
	scratchPats  []sitePattern
	scratchPred  []uint32
	scratchEnc   []byte
	scratchEntry verifyEntry

	// Group-commit flush scratch (see flushCF).
	scratchBatch []byte
	scratchMsgs  [][]byte
	scratchTags  []mac.Tag
}

// CacheStats is a consistent snapshot of one process's (or, summed, one
// kernel's) verification-cache counters. Hits are first-level hits,
// Misses full AES verifications, Invalidations stale first-level entries
// (a MAC-checked span's store generation moved), and Shares adoptions of
// an already-verified entry by byte compare — from the fleet-shared
// cache or from the process's own invalidated entry whose bytes proved
// unchanged.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Shares        uint64
}

// CacheStats returns a torn-read-free snapshot of the process's cache
// counters. Safe to call from a monitor goroutine while the process
// runs: the seqlock retries until a quiescent read.
func (p *Process) CacheStats() CacheStats {
	for {
		s1 := p.cacheSeq.Load()
		if s1&1 != 0 {
			continue
		}
		st := CacheStats{
			Hits:          p.cacheHits.Load(),
			Misses:        p.cacheMisses.Load(),
			Invalidations: p.cacheInvals.Load(),
			Shares:        p.cacheShares.Load(),
		}
		if p.cacheSeq.Load() == s1 {
			return st
		}
	}
}

// bumpCache applies one logical cache event (possibly touching several
// counters) inside a single seqlock window.
func (p *Process) bumpCache(hits, misses, invals, shares uint64) {
	p.cacheSeq.Add(1)
	if hits != 0 {
		p.cacheHits.Add(hits)
	}
	if misses != 0 {
		p.cacheMisses.Add(misses)
	}
	if invals != 0 {
		p.cacheInvals.Add(invals)
	}
	if shares != 0 {
		p.cacheShares.Add(shares)
	}
	p.cacheSeq.Add(1)
}

// setCacheStats overwrites the counters wholesale (checkpoint restore).
func (p *Process) setCacheStats(st CacheStats) {
	p.cacheSeq.Add(1)
	p.cacheHits.Store(st.Hits)
	p.cacheMisses.Store(st.Misses)
	p.cacheInvals.Store(st.Invalidations)
	p.cacheShares.Store(st.Shares)
	p.cacheSeq.Add(1)
}

// CacheStats sums the cache counters of every process the kernel has
// spawned — the fleet-wide view of the shared cache's effectiveness.
func (k *Kernel) CacheStats() CacheStats {
	k.mu.Lock()
	procs := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		procs = append(procs, p)
	}
	k.mu.Unlock()
	var sum CacheStats
	for _, p := range procs {
		st := p.CacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Invalidations += st.Invalidations
		sum.Shares += st.Shares
	}
	return sum
}

// arg returns system call argument i from its register (R1..R5).
func (p *Process) arg(i int) uint32 { return p.CPU.Regs[isa.R1+isa.Reg(i)] }

// pendingString is one MAC-checked buffer awaiting verification.
type pendingString struct {
	contents []byte
	tag      mac.Tag
}

// pendingPattern is one pattern-constrained argument awaiting compilation.
type pendingPattern struct {
	argIndex int
	tag      mac.Tag // content MAC of the pattern source (compile-cache key)
	source   []byte  // pattern AS contents (NUL-terminated)
}

// genSpan records the store-generation of one MAC-checked byte range.
type genSpan struct {
	addr uint32
	n    uint32
	gen  uint64
}

// sitePattern is a compiled pattern bound to its argument index.
type sitePattern struct {
	argIndex int
	pat      *pattern.Pattern
}

// verifyEntry caches the outcome of the AES-heavy verification steps for
// one call site. A later trap at the site may skip the call MAC and
// string MAC computations iff
//
//   - the auth record address and bytes are unchanged,
//   - the store-generation of every MAC-checked buffer is unchanged
//     (no application store could have touched it), and
//   - the canonical call encoding rebuilt from the *current* registers
//     and AS headers equals the verified one.
//
// The entry also carries the derived artifacts (decoded record,
// predecessor IDs, compiled patterns) so a hit re-parses nothing.
type verifyEntry struct {
	recAddr  uint32
	recBytes []byte
	encBytes []byte
	rec      policy.AuthRecord
	spans    []genSpan
	predIDs  []uint32
	pats     []sitePattern
}

// sharedKey identifies one call site of one installed binary in the
// fleet-shared cache.
type sharedKey struct {
	prog mac.Tag
	site uint32
}

// regCheck pins one trap register to its verified value: argument
// register rc.idx must hold rc.val for a cached verification to cover
// the current trap (numeric constrained args and the view addresses of
// string args; R6 and the call number are checked separately).
type regCheck struct {
	idx int
	val uint32
}

// sharedEntry is one fleet-shared verified site. It is immutable after
// construction; all per-process state (the generation snapshots) lives
// in procEntry. A trap is covered by the entry iff
//
//   - the call number and auth-record address match,
//   - every constrained argument register holds its verified value, and
//   - the bytes of every MAC-checked span — the auth record itself, the
//     {len, MAC} headers, the string/pattern/pred-set contents — are
//     unchanged, proven either by store-generation counters (first-level
//     hit) or by comparing against the verified copies (adoption).
type sharedEntry struct {
	num       uint16
	recAddr   uint32
	regChecks []regCheck
	spans     []genSpan // gen fields unused; addr/n only
	spanBytes [][]byte  // verified contents of each span, copied
	rec       policy.AuthRecord
	predIDs   []uint32
	pats      []sitePattern
}

// procEntry is a process's first-level handle on a verified entry: the
// store-generation snapshot of every span as this process last proved
// (or adopted) it.
type procEntry struct {
	se   *sharedEntry
	gens []uint64 // parallel to se.spans
}

// cfCommit is the control-flow group-commit queue of one process. While
// valid, the kernel mirrors the application's policy state: flushedBytes
// are the {lastBlock, MAC} words the kernel last materialized at lbPtr,
// baseCtr the counter sealed into that MAC, tail the block ID of the
// newest (possibly unflushed) committed call, and pending the state
// transitions not yet written back. watchGen is the VM write-watch
// counter over the state words when the mirror was last synchronized; an
// application store into them fires the watch and invalidates the
// mirror, routing the next call through the classic checker against the
// untouched evidence.
type cfCommit struct {
	valid        bool
	lbPtr        uint32
	tail         uint32
	baseCtr      uint64
	flushedBytes [policy.PolicyStateSize]byte
	watchGen     uint64
	pending      []policy.StateUpdate
}

// Spawn loads an executable into a new process. It is safe to call
// concurrently (the SMP scheduler and the supervisor both spawn while
// sibling processes run).
func (k *Kernel) Spawn(f *binfmt.File, name string) (*Process, error) {
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	k.mu.Unlock()
	p := &Process{
		PID:         pid,
		Name:        name,
		kern:        k,
		cwd:         "/",
		umask:       0o22,
		sigHandlers: make(map[uint32]uint32),
		Enforcement: k.enforcement,
	}
	if err := p.loadImage(k.program(f)); err != nil {
		return nil, err
	}
	// Standard descriptors.
	p.fds = make([]*fdEntry, 3, 16)
	p.fds[0] = &fdEntry{kind: fdConsole}
	p.fds[1] = &fdEntry{kind: fdConsole}
	p.fds[2] = &fdEntry{kind: fdConsole}
	k.mu.Lock()
	k.procs[p.PID] = p
	k.mu.Unlock()
	return p, nil
}

// program is the kernel's record of one executable: its decoded text and,
// once a checkpoint or the shared verify cache asks for it, its program
// tag (see progTag).
type program struct {
	file *binfmt.File
	text *vm.Text
	tag  atomic.Pointer[mac.Tag]
}

// newProgram decodes f's text.
func newProgram(f *binfmt.File) *program {
	pr := &program{file: f}
	if t := f.Section(binfmt.SecText); t != nil {
		pr.text = vm.DecodeText(t.Addr, t.Data)
	}
	return pr
}

// program returns the record of an executable this kernel spawns,
// decoding it on its first Spawn.
func (k *Kernel) program(f *binfmt.File) *program {
	if v, ok := k.programs.Load(f); ok {
		return v.(*program)
	}
	v, _ := k.programs.LoadOrStore(f, newProgram(f))
	return v.(*program)
}

// loadImage (re)initializes the process address space from a binary:
// each section is written where it loads, and the memory fetches from the
// binary's decoded text while it holds those bytes.
func (p *Process) loadImage(pr *program) error {
	f := pr.file
	if len(f.Sections) == 0 {
		return fmt.Errorf("kernel: load %s: no sections", p.Name)
	}
	mem := vm.NewMemory(binfmt.TextBase, DefaultMemSize)
	var end uint32 = binfmt.TextBase
	for _, s := range f.Sections {
		if s.Addr < mem.Base() || s.End() < s.Addr || s.End() > mem.Limit() || mem.KernelWrite(s.Addr, s.Data) != nil {
			return fmt.Errorf("kernel: load %s: section %s [%#x,%#x) outside memory", p.Name, s.Name, s.Addr, s.End())
		}
		if s.Size == 0 {
			continue
		}
		mem.Map(vm.Segment{Name: s.Name, Start: s.Addr, End: s.End(), Perms: s.Flags})
		if s.End() > end {
			end = s.End()
		}
	}
	// Heap begins after the image; brk grows it.
	heapStart := (end + 0xfff) &^ 0xfff
	p.brk = heapStart
	mem.Map(vm.Segment{Name: "heap", Start: heapStart, End: heapStart, Perms: vm.PermRead | vm.PermWrite})
	// Stack at the top, executable (2005-era semantics; see internal/vm).
	top := mem.Limit()
	mem.Map(vm.Segment{
		Name: "stack", Start: top - DefaultStackSize, End: top,
		Perms: vm.PermRead | vm.PermWrite | vm.PermExec,
	})
	// Paged mode: the mmap arena sits just below the stack; sysBrk caps
	// the heap at its base.
	p.pager = nil
	if p.kern.pagedBudget > 0 {
		p.installPaging(mem, top-DefaultStackSize)
	}

	cpu := p.CPU
	if cpu == nil {
		cpu = vm.New(mem, &trapAdapter{p})
		cpu.PC = f.Entry
		cpu.Regs[isa.SP] = top
	} else {
		// execve: replace the image in place, keeping the cycle counter.
		cpu.Reset(mem, f.Entry, top)
	}
	mem.AttachText(pr.text)

	p.CPU = cpu
	p.Mem = mem
	// A fault injector that also models torn kernel stores hooks the
	// write path of every address space it observes.
	if wf, ok := p.kern.injector.(vm.WriteFaulter); ok {
		mem.SetWriteFaulter(wf)
	}
	p.prog = pr
	p.authenticated = f.Authenticated
	p.counter = 0
	p.fdTracker = nil
	p.vcache = nil                                     // execve: cached sites refer to the old image
	p.commit = cfCommit{pending: p.commit.pending[:0]} // and so does the commit mirror
	if addr, ok := f.SymbolAddr("__asc_fdset"); ok && p.kern.key != nil {
		tr, err := captrack.Attach(p.kern.key, addr, captrack.DefaultCapacity)
		if err != nil {
			return fmt.Errorf("kernel: attach fd tracker: %w", err)
		}
		p.fdTracker = tr
	}
	return nil
}

// trapAdapter delivers VM traps to the kernel with the owning process.
type trapAdapter struct{ p *Process }

func (t *trapAdapter) Trap(c *vm.CPU, site uint32, authed bool) (uint32, bool, error) {
	return t.p.kern.trap(t.p, site, authed)
}

// Run executes the process until exit, kill, fault, or cycle budget
// exhaustion. Concurrent Run calls on one kernel are safe as long as
// each Process is driven by a single goroutine at a time; cross-process
// kernel state (the VFS, the audit ring, the pattern cache, PID
// allocation) is synchronized, and all per-call verification scratch is
// per-Process.
func (k *Kernel) Run(p *Process, maxCycles uint64) error {
	err := p.CPU.Run(maxCycles)
	if err != nil {
		// A kill decided on the page-fault path unwinds the faulting
		// instruction as a VM error; the process state already says
		// everything (Killed, KilledBy), so it is not a Run failure —
		// same contract as a kill decided inside a trap.
		if p.Killed {
			return nil
		}
		return err
	}
	return nil
}

// kill terminates the process and records the audit entry.
func (k *Kernel) kill(p *Process, num uint16, site uint32, reason KillReason) {
	p.Killed = true
	p.KilledBy = reason
	p.Exited = true
	p.Code = 0xff
	k.record(p, num, site, reason, ActionKill)
}

// record appends a structured violation to the bounded audit ring.
func (k *Kernel) record(p *Process, num uint16, site uint32, reason KillReason, act Action) {
	k.Audit.Append(Violation{
		PID: p.PID, Program: p.Name, Num: num, Name: sys.Name(num), Site: site,
		Reason: reason, Action: act,
	})
}

// violate applies the process's enforcement mode to a verification
// failure. handled=true means the trap is finished (the returned value
// and halt flag go back to the CPU); handled=false means audit-only:
// the caller proceeds to execute the call.
func (k *Kernel) violate(p *Process, num uint16, site uint32, reason KillReason) (ret uint32, halt, handled bool) {
	switch p.Enforcement {
	case EnforceDeny:
		p.DeniedCount++
		k.record(p, num, site, reason, ActionDeny)
		return errno(sys.EPERM), false, true
	case EnforceAudit:
		p.AuditedCount++
		k.record(p, num, site, reason, ActionAudit)
		return 0, false, false
	default:
		k.kill(p, num, site, reason)
		return 0, true, true
	}
}

// resyncCF re-establishes the memory checker's invariant after a
// non-fatal (Deny/Audit) violation of an authenticated call. Verification
// aborted somewhere in the three-step check, so the control-flow state in
// application memory may no longer match the in-kernel counter, and the
// chain no longer records the denied site's block. Advancing
// {lastBlock, lbMAC, counter} to the record's block keeps exactly one
// violation per bad call; without it the first denial would cascade into
// a predecessor violation at every later site. This is a deliberate
// availability/strictness trade: Deny and Audit accept the record's
// unverified BlockID into the chain (the call itself was still refused
// or flagged), where Kill mode never reaches this point.
func (k *Kernel) resyncCF(p *Process) {
	// The resync writes the state words directly: the group-commit
	// mirror no longer describes them, and the queued updates belong to
	// the pre-violation chain. Drop both; the next call re-arms.
	p.commit.valid = false
	p.commit.pending = p.commit.pending[:0]
	recAddr := p.CPU.Regs[isa.R6]
	recBytes, err := p.Mem.KernelRead(recAddr, policy.AuthRecordSize)
	if err != nil {
		return
	}
	rec, err := policy.DecodeAuthRecord(recBytes)
	if err != nil || !rec.Desc.ControlFlow() {
		return
	}
	next := p.counter + 1
	newMAC, blocks := policy.StateMAC(k.key, rec.BlockID, next)
	k.chargeAES(p, blocks)
	if err := p.Mem.KernelStore32(rec.LbPtr, rec.BlockID); err != nil {
		return
	}
	if err := p.Mem.KernelWrite(rec.LbPtr+4, newMAC[:]); err != nil {
		return
	}
	p.counter = next
}

// trap is the software trap handler.
func (k *Kernel) trap(p *Process, site uint32, authed bool) (uint32, bool, error) {
	p.CPU.Cycles += k.Costs.Trap
	p.SyscallCount++
	num := uint16(p.CPU.Regs[isa.R0])
	// One signature lookup per trap, shared by the verification path
	// (path normalization) and the capability-set maintenance.
	sig, sigOK := sys.Lookup(num)

	if k.Mode == Enforce && (p.authenticated || k.RequireAuthenticated) {
		if !authed || !p.authenticated {
			if ret, halt, handled := k.violate(p, num, site, KillUnauthenticated); handled {
				return ret, halt, nil
			}
		} else if reason, ok := k.verify(p, num, site, sig, sigOK); !ok {
			ret, halt, handled := k.violate(p, num, site, reason)
			if !halt {
				// Deny or Audit: the process lives on — restore the
				// monitor's control-flow invariant so only this call is
				// flagged (see resyncCF).
				k.resyncCF(p)
			}
			if handled {
				return ret, halt, nil
			}
		}
	} else if k.MonitorOverhead != nil {
		extra, allow := k.MonitorOverhead(p, num, site)
		p.CPU.Cycles += extra
		if !allow {
			k.kill(p, num, site, "blocked by external monitor policy")
			return 0, true, nil
		}
	}

	var args [sys.MaxArgs]uint32
	for i := 0; i < sys.MaxArgs; i++ {
		args[i] = p.arg(i)
	}
	ret, exit := k.dispatch(p, num, site, args)
	if !exit && p.fdTracker != nil && k.Mode == Enforce && p.authenticated {
		if err := k.updateFDSet(p, num, sig, sigOK, args, ret); err != nil {
			k.kill(p, num, site, KillBadState)
			return 0, true, nil
		}
	}
	if p.DoTrace && !exit {
		p.Trace = append(p.Trace, TraceEntry{Num: num, Site: site, Args: args, Ret: ret})
	}
	if p.DoTrace && exit {
		p.Trace = append(p.Trace, TraceEntry{Num: num, Site: site, Args: args})
	}
	return ret, exit, nil
}

// chargeAES charges the cycle cost of aes block operations.
func (k *Kernel) chargeAES(p *Process, blocks int) {
	p.CPU.Cycles += uint64(blocks) * k.Costs.PerAESBlock
	p.VerifyAESBlocks += uint64(blocks)
}

// readASView reads the {length, MAC} header of an authenticated string
// whose bytes pointer is addr, without touching the contents.
func (k *Kernel) readASView(p *Process, addr uint32) (policy.ASView, bool) {
	if addr < policy.ASHeaderSize {
		return policy.ASView{}, false
	}
	length, err := p.Mem.KernelLoad32(addr - 20)
	if err != nil || length > policy.MaxASLen {
		return policy.ASView{}, false
	}
	tagBytes, err := p.Mem.KernelRead(addr-16, mac.Size)
	if err != nil {
		return policy.ASView{}, false
	}
	var tag mac.Tag
	copy(tag[:], tagBytes)
	return policy.ASView{Addr: addr, Len: length, MAC: tag}, true
}

// readAS reads an authenticated-string view {addr,len,mac} whose bytes
// pointer is addr. Returns the view and the string bytes.
func (k *Kernel) readAS(p *Process, addr uint32) (policy.ASView, []byte, bool) {
	view, ok := k.readASView(p, addr)
	if !ok {
		return policy.ASView{}, nil, false
	}
	contents, err := p.Mem.KernelRead(addr, view.Len)
	if err != nil {
		return policy.ASView{}, nil, false
	}
	return view, contents, true
}

// asSpan is the byte range an authenticated string occupies in memory:
// the {length, MAC} header plus the contents.
func asSpan(view policy.ASView) genSpan {
	return genSpan{addr: view.Addr - policy.ASHeaderSize, n: policy.ASHeaderSize + view.Len}
}

// verify implements the three-step check of Section 3.4, with an optional
// site-keyed cache in front of the AES-heavy Steps 1 and 2.
func (k *Kernel) verify(p *Process, num uint16, site uint32, sig sys.Sig, sigOK bool) (KillReason, bool) {
	p.VerifyCount++

	// The auth record address arrives in R6.
	recAddr := p.CPU.Regs[isa.R6]

	// Fault-injection hook: a campaign may perturb the platform here,
	// before this trap's verification reads any state.
	if k.injector != nil {
		k.injector.BeforeVerify(p, num, site, recAddr)
	}

	if k.Cache != CacheOff {
		if pe := p.vcache[site]; pe != nil {
			if k.l1Hit(p, pe, num, recAddr) {
				p.bumpCache(1, 0, 0, 0)
				p.CPU.Cycles += k.Costs.CacheHit
				se := pe.se
				return k.verifyDynamic(p, num, &se.rec, se.predIDs, se.pats, sig, sigOK)
			}
			// A MAC-checked span's generation moved (or a register
			// diverged): the first-level entry is stale. Try to re-adopt
			// by byte compare before falling back to full AES
			// verification — a benign store elsewhere in a covering
			// segment leaves the verified bytes intact.
			delete(p.vcache, site)
			if npe := k.adopt(p, pe.se, num, recAddr); npe != nil {
				p.bumpCache(0, 0, 1, 1)
				p.CPU.Cycles += k.Costs.CacheAdopt
				p.vcache[site] = npe
				se := npe.se
				return k.verifyDynamic(p, num, &se.rec, se.predIDs, se.pats, sig, sigOK)
			}
			p.bumpCache(0, 1, 1, 0)
		} else {
			// No first-level entry. In shared mode a sibling process may
			// already have verified this site: adopt its entry without
			// any AES work if the local bytes match the verified copies.
			if k.Cache == CacheShared {
				if se := k.sharedLookup(p, site); se != nil {
					if npe := k.adopt(p, se, num, recAddr); npe != nil {
						p.bumpCache(0, 0, 0, 1)
						p.CPU.Cycles += k.Costs.CacheAdopt
						if p.vcache == nil {
							p.vcache = make(map[uint32]*procEntry)
						}
						p.vcache[site] = npe
						return k.verifyDynamic(p, num, &se.rec, se.predIDs, se.pats, sig, sigOK)
					}
				}
			}
			p.bumpCache(0, 1, 0, 0)
		}
	}
	e, se, reason, ok := k.verifyMACs(p, num, site, recAddr, k.Cache != CacheOff)
	if !ok {
		return reason, false
	}
	if se != nil {
		if k.Cache == CacheShared {
			se = k.sharedPublish(p, site, se)
		}
		if npe := k.snapshotGens(p, se); npe != nil {
			if p.vcache == nil {
				p.vcache = make(map[uint32]*procEntry)
			}
			p.vcache[site] = npe
		}
		return k.verifyDynamic(p, num, &se.rec, se.predIDs, se.pats, sig, sigOK)
	}
	return k.verifyDynamic(p, num, &e.rec, e.predIDs, e.pats, sig, sigOK)
}

// sharedLookup returns the fleet-shared entry for this process's binary
// at the given site, if a sibling has published one.
func (k *Kernel) sharedLookup(p *Process, site uint32) *sharedEntry {
	tag, err := k.progTag(p.prog)
	if err != nil {
		return nil
	}
	if v, ok := k.shared.Load(sharedKey{prog: tag, site: site}); ok {
		return v.(*sharedEntry)
	}
	return nil
}

// sharedPublish installs a freshly verified entry in the fleet cache.
// If a sibling published the same site concurrently, both entries
// describe the same verified bytes; the first one in wins and is used
// from then on by everyone.
func (k *Kernel) sharedPublish(p *Process, site uint32, se *sharedEntry) *sharedEntry {
	tag, err := k.progTag(p.prog)
	if err != nil {
		return se
	}
	got, _ := k.shared.LoadOrStore(sharedKey{prog: tag, site: site}, se)
	return got.(*sharedEntry)
}

// l1Hit decides whether a first-level cache entry still covers the
// current trap. It is AES-free and read-free: the call number, the auth
// record address, and every constrained argument register must match the
// verified snapshot, and the store generation of every MAC-checked span
// must equal the value recorded when this process last proved the bytes.
func (k *Kernel) l1Hit(p *Process, pe *procEntry, num uint16, recAddr uint32) bool {
	se := pe.se
	if num != se.num || recAddr != se.recAddr {
		return false
	}
	for _, rc := range se.regChecks {
		if p.arg(rc.idx) != rc.val {
			return false
		}
	}
	for i := range se.spans {
		g, ok := p.Mem.SpanGeneration(se.spans[i].addr, se.spans[i].n)
		if !ok || g != pe.gens[i] {
			return false
		}
	}
	return true
}

// adopt validates a verified entry against this process's live state by
// byte compare — no AES — and returns a first-level handle on success.
// Sound because the MAC checks are pure functions of the compared bytes:
// if the record, headers, and contents equal the fleet-verified copies,
// re-running Steps 1 and 2 would reproduce the recorded success.
func (k *Kernel) adopt(p *Process, se *sharedEntry, num uint16, recAddr uint32) *procEntry {
	if num != se.num || recAddr != se.recAddr {
		return nil
	}
	for _, rc := range se.regChecks {
		if p.arg(rc.idx) != rc.val {
			return nil
		}
	}
	gens := make([]uint64, len(se.spans))
	for i := range se.spans {
		g, ok := p.Mem.SpanGeneration(se.spans[i].addr, se.spans[i].n)
		if !ok {
			return nil
		}
		b, err := p.Mem.KernelRead(se.spans[i].addr, se.spans[i].n)
		if err != nil || !bytes.Equal(b, se.spanBytes[i]) {
			return nil
		}
		gens[i] = g
	}
	return &procEntry{se: se, gens: gens}
}

// snapshotGens builds the first-level handle for a just-verified entry.
// It returns nil when a span's immutability is not provable (the span
// straddles segments), in which case the site stays uncached.
func (k *Kernel) snapshotGens(p *Process, se *sharedEntry) *procEntry {
	gens := make([]uint64, len(se.spans))
	for i := range se.spans {
		g, ok := p.Mem.SpanGeneration(se.spans[i].addr, se.spans[i].n)
		if !ok {
			return nil
		}
		gens[i] = g
	}
	return &procEntry{se: se, gens: gens}
}

// verifyMACs performs Steps 1 and 2: reconstruct the encoded call from the
// actual trap state, check the call MAC, and check the integrity of every
// authenticated string. When fill is set (and every checked buffer maps to
// a single segment) it additionally returns an immutable sharedEntry ready
// for the cache; otherwise the per-process scratch entry carries the
// decoded artifacts the dynamic steps need.
func (k *Kernel) verifyMACs(p *Process, num uint16, site, recAddr uint32, fill bool) (*verifyEntry, *sharedEntry, KillReason, bool) {
	p.CPU.Cycles += k.Costs.AuthFixed

	// The descriptor (the record's first word) determines whether a
	// pattern extension follows the fixed part.
	descWord, err := p.Mem.KernelLoad32(recAddr)
	if err != nil {
		return nil, nil, KillBadRecord, false
	}
	recSize := uint32(policy.AuthRecordSize + 4*policy.Descriptor(descWord).NumPatterns())
	recBytes, err := p.Mem.KernelRead(recAddr, recSize)
	if err != nil {
		return nil, nil, KillBadRecord, false
	}
	rec, err := policy.DecodeAuthRecord(recBytes)
	if err != nil {
		return nil, nil, KillBadRecord, false
	}

	// Reconstruct the encoded call from actual behaviour.
	enc := policy.CallEncoding{
		Num:     num,
		Site:    site,
		Desc:    rec.Desc,
		BlockID: rec.BlockID,
		LbPtr:   rec.LbPtr,
	}
	enc.Args = p.scratchArgs[:0]
	strChecks := p.scratchStr[:0]
	patChecks := p.scratchPat[:0]
	spans := p.scratchSpans[:0]
	patIdx := 0
	for i := 0; i < sys.MaxArgs; i++ {
		val := p.arg(i)
		switch {
		case rec.Desc.ArgConstrained(i) && rec.Desc.ArgString(i):
			view, contents, ok := k.readAS(p, val)
			if !ok {
				return nil, nil, KillBadString, false
			}
			enc.Args = append(enc.Args, policy.EncodedArg{
				Index: i, IsString: true, Value: view.Addr, Len: view.Len, MAC: view.MAC,
			})
			strChecks = append(strChecks, pendingString{contents, view.MAC})
			spans = append(spans, asSpan(view))
		case rec.Desc.ArgConstrained(i):
			enc.Args = append(enc.Args, policy.EncodedArg{Index: i, Value: val})
		case rec.Desc.ArgPattern(i):
			if patIdx >= len(rec.PatternPtrs) {
				return nil, nil, KillBadRecord, false
			}
			view, contents, ok := k.readAS(p, rec.PatternPtrs[patIdx])
			patIdx++
			if !ok {
				return nil, nil, KillBadString, false
			}
			enc.Args = append(enc.Args, policy.EncodedArg{
				Index: i, IsPattern: true, Value: view.Addr, Len: view.Len, MAC: view.MAC,
			})
			strChecks = append(strChecks, pendingString{contents, view.MAC})
			patChecks = append(patChecks, pendingPattern{argIndex: i, tag: view.MAC, source: contents})
			spans = append(spans, asSpan(view))
		}
	}
	var predView policy.ASView
	var predBytes []byte
	if rec.Desc.ControlFlow() {
		view, contents, ok := k.readAS(p, rec.PredSetPtr)
		if !ok {
			return nil, nil, KillBadRecord, false
		}
		predView, predBytes = view, contents
		enc.PredSet = &predView
		strChecks = append(strChecks, pendingString{contents, view.MAC})
		spans = append(spans, asSpan(view))
	}

	// Step 1: call MAC over the canonical encoding.
	p.scratchEnc = enc.AppendBytes(p.scratchEnc[:0])
	got, blocks := k.key.Sum(p.scratchEnc)
	k.chargeAES(p, blocks)
	if !got.Equal(rec.CallMAC) {
		p.keepScratch(enc.Args, strChecks, patChecks, spans)
		return nil, nil, KillBadCallMAC, false
	}

	// Step 2: authenticated string contents.
	for _, sc := range strChecks {
		ok, blocks := k.key.Verify(sc.contents, sc.tag)
		k.chargeAES(p, blocks)
		if !ok {
			p.keepScratch(enc.Args, strChecks, patChecks, spans)
			return nil, nil, KillBadString, false
		}
	}

	// Compile the (now MAC-verified) pattern sources; compilation is
	// cached per distinct content tag, so pattern.Parse runs once per
	// distinct pattern across all processes of this kernel.
	pats := p.scratchPats[:0]
	for _, pc := range patChecks {
		pat, err := k.compilePattern(pc.tag, pc.source)
		if err != nil {
			p.keepScratch(enc.Args, strChecks, patChecks, spans)
			return nil, nil, KillBadRecord, false
		}
		pats = append(pats, sitePattern{argIndex: pc.argIndex, pat: pat})
	}

	// Decode the (MAC-verified) predecessor set.
	var predIDs []uint32
	if rec.Desc.ControlFlow() {
		ids, err := policy.AppendPredSet(p.scratchPred[:0], predBytes)
		p.scratchPred = ids
		if err != nil {
			p.keepScratch(enc.Args, strChecks, patChecks, spans)
			return nil, nil, KillBadPredecessor, false
		}
		predIDs = ids
	}

	var se *sharedEntry
	if fill {
		se = k.buildSharedEntry(p, num, recAddr, recBytes, rec, spans, predIDs, pats)
	}
	e := &p.scratchEntry
	*e = verifyEntry{rec: rec, predIDs: predIDs, pats: pats}
	p.keepScratch(enc.Args, strChecks, patChecks, spans)
	p.scratchPats = pats
	return e, se, "", true
}

// buildSharedEntry assembles the immutable cache entry for a site that
// just passed Steps 1 and 2, copying the auth record and every
// MAC-checked span out of process memory. It returns nil when a span's
// immutability is not provable (the buffer straddles segments): such a
// site is not cacheable.
func (k *Kernel) buildSharedEntry(p *Process, num uint16, recAddr uint32, recBytes []byte, rec policy.AuthRecord, spans []genSpan, predIDs []uint32, pats []sitePattern) *sharedEntry {
	allSpans := make([]genSpan, 0, len(spans)+1)
	allSpans = append(allSpans, genSpan{addr: recAddr, n: uint32(len(recBytes))})
	allSpans = append(allSpans, spans...)
	spanBytes := make([][]byte, len(allSpans))
	for i := range allSpans {
		if _, ok := p.Mem.SpanGeneration(allSpans[i].addr, allSpans[i].n); !ok {
			return nil
		}
		b, err := p.Mem.KernelRead(allSpans[i].addr, allSpans[i].n)
		if err != nil {
			return nil
		}
		spanBytes[i] = append([]byte(nil), b...)
	}
	var regChecks []regCheck
	for i := 0; i < sys.MaxArgs; i++ {
		if rec.Desc.ArgConstrained(i) {
			regChecks = append(regChecks, regCheck{idx: i, val: p.arg(i)})
		}
	}
	return &sharedEntry{
		num:       num,
		recAddr:   recAddr,
		regChecks: regChecks,
		spans:     allSpans,
		spanBytes: spanBytes,
		rec:       rec,
		predIDs:   append([]uint32(nil), predIDs...),
		pats:      append([]sitePattern(nil), pats...),
	}
}

// keepScratch hands the (possibly grown) per-call slices back to the
// process so the next verification reuses their capacity.
func (p *Process) keepScratch(args []policy.EncodedArg, str []pendingString, pat []pendingPattern, spans []genSpan) {
	p.scratchArgs = args[:0]
	p.scratchStr = str[:0]
	p.scratchPat = pat[:0]
	p.scratchSpans = spans[:0]
}

// compilePattern returns the compiled pattern for MAC-verified source
// bytes, caching by content tag. Concurrent first compilations of the
// same pattern may race benignly; both produce identical *Pattern values
// and LoadOrStore keeps exactly one.
func (k *Kernel) compilePattern(tag mac.Tag, source []byte) (*pattern.Pattern, error) {
	if pat, ok := k.patterns.Load(tag); ok {
		return pat.(*pattern.Pattern), nil
	}
	src := strings.TrimRight(string(source), "\x00")
	pat, err := pattern.Parse(src)
	if err != nil {
		return nil, err
	}
	got, _ := k.patterns.LoadOrStore(tag, pat)
	return got.(*pattern.Pattern), nil
}

// verifyDynamic performs the per-call checks that are never cached: path
// normalization, pattern matching of the live arguments, capability
// membership, and the control-flow policy via the online memory checker.
func (k *Kernel) verifyDynamic(p *Process, num uint16, rec *policy.AuthRecord, predIDs []uint32, pats []sitePattern, sig sys.Sig, sigOK bool) (KillReason, bool) {
	// Step 2a (§5.4 extension): policy-constrained path arguments must
	// normalize to themselves — a symlink planted at the approved name
	// redirects the resolution and is rejected.
	if k.NormalizePaths && sigOK {
		for i := 0; i < sig.NArgs(); i++ {
			if !rec.Desc.ArgString(i) || sig.Args[i] != sys.ArgPath {
				continue
			}
			raw, err := p.Mem.CString(p.arg(i), 4096)
			if err != nil {
				return KillBadString, false
			}
			want := p.resolvePath(raw)
			got, err := k.FS.Normalize(want)
			if err != nil {
				continue // target does not exist yet (e.g. O_CREAT): nothing to race
			}
			p.CPU.Cycles += uint64(len(want)) * 2 // modeled path-walk cost
			if got != want {
				return KillSymlinkRace, false
			}
		}
	}

	// Step 2b (§5.1 extension): pattern-constrained arguments. The
	// pattern source is MAC-verified (or cache-proven unchanged); match
	// the actual argument against it. (Without application-supplied
	// hints the kernel pays for the full match; see internal/pattern for
	// the hint protocol.)
	for _, sp := range pats {
		arg, err := p.Mem.CString(p.arg(sp.argIndex), 4096)
		if err != nil {
			return KillBadPattern, false
		}
		p.CPU.Cycles += uint64(len(arg)+len(sp.pat.String())) * 3
		if _, err := sp.pat.Match(arg); err != nil {
			return KillBadPattern, false
		}
	}

	// Step 2c (§5.3 extension): tracked descriptor capabilities. The
	// argument must be a member of the MAC-protected live-descriptor set.
	for i := 0; i < sys.MaxArgs; i++ {
		if !rec.Desc.ArgFD(i) {
			continue
		}
		if p.fdTracker == nil {
			return KillBadCapability, false
		}
		before := p.fdTracker.AESBlocks
		err := p.fdTracker.Check(p.Mem, p.arg(i))
		k.chargeAES(p, p.fdTracker.AESBlocks-before)
		switch {
		case err == nil:
		case errors.Is(err, captrack.ErrNotTracked):
			return KillBadCapability, false
		default:
			return KillBadState, false
		}
	}

	// Step 3: control flow policy via the online memory checker. Never
	// cached: the state MAC is bound to the in-kernel counter nonce and
	// must be checked and advanced on every call. Under group commit
	// (WithBatchVerify) the per-call AES pass is replaced by an in-kernel
	// mirror check, with the MAC writeback amortized over a batch.
	if rec.Desc.ControlFlow() {
		if k.batchN > 1 {
			return k.checkCFBatched(p, num, rec, predIDs)
		}
		return k.checkCFClassic(p, rec, predIDs)
	}
	return "", true
}

// checkCFClassic is the write-per-call control-flow check of §5.2: read
// the state words, verify the state MAC against the in-kernel counter,
// check the predecessor set, then write the advanced state back.
func (k *Kernel) checkCFClassic(p *Process, rec *policy.AuthRecord, predIDs []uint32) (KillReason, bool) {
	lastBlock, err := p.Mem.KernelLoad32(rec.LbPtr)
	if err != nil {
		return KillBadState, false
	}
	lbMACBytes, err := p.Mem.KernelRead(rec.LbPtr+4, mac.Size)
	if err != nil {
		return KillBadState, false
	}
	var lbMAC mac.Tag
	copy(lbMAC[:], lbMACBytes)
	want, blocks := policy.StateMAC(k.key, lastBlock, p.counter)
	k.chargeAES(p, blocks)
	if !want.Equal(lbMAC) {
		return KillBadState, false
	}
	if !policy.PredSetContains(predIDs, lastBlock) {
		return KillBadPredecessor, false
	}
	// Update: counter++, lastBlock = blockID, new state MAC. The MAC
	// written to application memory is always the intended
	// single-increment one; the injector's NonceUpdate hook may
	// desynchronize the in-kernel counter (dropped or duplicated
	// update), which the next control-flow check then detects.
	next := p.counter + 1
	newMAC, blocks := policy.StateMAC(k.key, rec.BlockID, next)
	k.chargeAES(p, blocks)
	if err := p.Mem.KernelStore32(rec.LbPtr, rec.BlockID); err != nil {
		return KillBadState, false
	}
	if err := p.Mem.KernelWrite(rec.LbPtr+4, newMAC[:]); err != nil {
		return KillBadState, false
	}
	if k.injector != nil {
		p.counter += uint64(k.injector.NonceUpdate(p))
	} else {
		p.counter = next
	}
	if k.batchN > 1 {
		k.armCommit(p, rec, next, newMAC)
	}
	return "", true
}

// armCommit (re)establishes the group-commit mirror after a successful
// classic check wrote the state words: the mirror records the intended
// bytes now in memory, the intended counter they seal, and the current
// write-watch generation over the state window. Subsequent calls at this
// state pointer can then take the AES-free fast path.
func (k *Kernel) armCommit(p *Process, rec *policy.AuthRecord, next uint64, newMAC mac.Tag) {
	c := &p.commit
	c.valid = true
	c.lbPtr = rec.LbPtr
	c.tail = rec.BlockID
	c.baseCtr = next
	binary.LittleEndian.PutUint32(c.flushedBytes[0:4], rec.BlockID)
	copy(c.flushedBytes[4:], newMAC[:])
	c.pending = c.pending[:0]
	c.watchGen = p.Mem.WatchRange(rec.LbPtr, rec.LbPtr+policy.PolicyStateSize)
}

// checkCFBatched is the group-commit control-flow check. While the
// in-kernel mirror can prove the application's state words are exactly
// the bytes the kernel last wrote (the write watch has not fired and the
// bytes compare equal) and the counter agrees with the queue, each call
// pays only the mirror compare and predecessor probe; the state-MAC
// writes queue up and flush as one batched CMAC pass every batchN calls
// (and always at exit, so memory is current when the process ends). Any
// disagreement falls back to the classic checker against whatever the
// memory actually holds — tampering evidence is never overwritten.
func (k *Kernel) checkCFBatched(p *Process, num uint16, rec *policy.AuthRecord, predIDs []uint32) (KillReason, bool) {
	c := &p.commit
	if c.valid && c.lbPtr != rec.LbPtr {
		// A program with more than one state window (not emitted by our
		// installer, but legal): synchronize the old window before the
		// classic check re-arms on the new one.
		k.drainCommit(p)
	}
	if c.valid && c.lbPtr == rec.LbPtr {
		live, err := p.Mem.KernelRead(c.lbPtr, policy.PolicyStateSize)
		tampered := err != nil ||
			p.Mem.WatchGeneration() != c.watchGen ||
			!bytes.Equal(live, c.flushedBytes[:])
		switch {
		case !tampered && p.counter == c.baseCtr+uint64(len(c.pending)):
			p.CPU.Cycles += k.Costs.CFCheck
			if !policy.PredSetContains(predIDs, c.tail) {
				return KillBadPredecessor, false
			}
			intended := c.baseCtr + uint64(len(c.pending)) + 1
			c.pending = append(c.pending, policy.StateUpdate{Block: rec.BlockID, Ctr: intended})
			c.tail = rec.BlockID
			if k.injector != nil {
				p.counter += uint64(k.injector.NonceUpdate(p))
			} else {
				p.counter++
			}
			if len(c.pending) >= k.batchN || num == sys.SysExit {
				if !k.flushCF(p) {
					return KillBadState, false
				}
			}
			return "", true
		case !tampered && len(c.pending) > 0:
			// Memory is exactly as the kernel left it, but the in-kernel
			// counter disagrees with the queue: a dropped or duplicated
			// nonce update. Materialize the intended state first; the
			// classic check below then compares it against the desynced
			// counter and fails exactly as the write-per-call checker
			// would have.
			if !k.flushCF(p) {
				return KillBadState, false
			}
		default:
			// The state words changed behind the mirror's back (or became
			// unreadable). The queue is no longer anchored to memory:
			// discard it and leave the evidence in place for the classic
			// check to judge.
			c.valid = false
			c.pending = c.pending[:0]
		}
	}
	return k.checkCFClassic(p, rec, predIDs)
}

// flushCF materializes the queued control-flow transitions: one batched
// CMAC pass over every queued 12-byte state message, then a single
// writeback of the newest state words. The landed bytes are read back
// and compared against the intended ones, so a store torn during the
// flush is detected at the flush itself rather than silently queuing
// more calls on top of it. Returns false (and invalidates the mirror)
// when the writeback failed or tore.
func (k *Kernel) flushCF(p *Process) bool {
	c := &p.commit
	if len(c.pending) == 0 {
		return true
	}
	p.scratchBatch = policy.EncodeStateBatch(p.scratchBatch[:0], c.pending)
	msgs := p.scratchMsgs[:0]
	for i := range c.pending {
		off := 4 + i*policy.StateMsgSize
		msgs = append(msgs, p.scratchBatch[off:off+policy.StateMsgSize])
	}
	tags, blocks := k.key.SumBatch(msgs, p.scratchTags[:0])
	p.CPU.Cycles += uint64(blocks)*k.Costs.PerAESBlockBatched + k.Costs.CommitFlush
	p.VerifyAESBlocks += uint64(blocks)
	last := c.pending[len(c.pending)-1]
	tag := tags[len(tags)-1]
	p.scratchMsgs = msgs[:0]
	p.scratchTags = tags[:0]
	c.baseCtr = last.Ctr
	binary.LittleEndian.PutUint32(c.flushedBytes[0:4], last.Block)
	copy(c.flushedBytes[4:], tag[:])
	c.pending = c.pending[:0]
	ok := p.Mem.KernelStore32(c.lbPtr, last.Block) == nil &&
		p.Mem.KernelWrite(c.lbPtr+4, tag[:]) == nil
	if ok {
		live, err := p.Mem.KernelRead(c.lbPtr, policy.PolicyStateSize)
		ok = err == nil && bytes.Equal(live, c.flushedBytes[:])
	}
	c.watchGen = p.Mem.WatchGeneration()
	if !ok {
		c.valid = false
		return false
	}
	return true
}

// drainCommit brings application memory up to date with the group-commit
// queue when an external observer needs it current (checkpoint, scheduler
// parking, a state-pointer change). The queue is flushed while the state
// words are untampered — the watch has not fired and the bytes still
// match the mirror. The in-kernel counter is deliberately NOT consulted:
// the flush always writes the intended counters, so a desynced counter
// (a dropped or duplicated nonce update) fails the next classic state-MAC
// check exactly as it would have without batching. Only tampered memory
// forces a discard, leaving the evidence in place for the classic
// checker to judge at the next call.
func (k *Kernel) drainCommit(p *Process) {
	c := &p.commit
	if !c.valid || len(c.pending) == 0 {
		return
	}
	live, err := p.Mem.KernelRead(c.lbPtr, policy.PolicyStateSize)
	if err != nil || p.Mem.WatchGeneration() != c.watchGen ||
		!bytes.Equal(live, c.flushedBytes[:]) {
		c.valid = false
		c.pending = c.pending[:0]
		return
	}
	if !k.flushCF(p) {
		c.valid = false
	}
}

// updateFDSet maintains the §5.3 capability set across calls that create
// or destroy descriptors.
func (k *Kernel) updateFDSet(p *Process, num uint16, sig sys.Sig, sigOK bool, args [sys.MaxArgs]uint32, ret uint32) error {
	if !sigOK {
		return nil
	}
	before := p.fdTracker.AESBlocks
	defer func() { k.chargeAES(p, p.fdTracker.AESBlocks-before) }()
	switch {
	case sig.ReturnFD && int32(ret) >= 0:
		if err := p.fdTracker.Add(p.Mem, ret); err != nil && !errors.Is(err, captrack.ErrFull) {
			return err
		}
	case num == sys.SysClose && ret == 0:
		if err := p.fdTracker.Remove(p.Mem, args[0]); err != nil && !errors.Is(err, captrack.ErrNotTracked) {
			return err
		}
	}
	return nil
}

// resolvePath joins a process-relative path against the cwd.
func (p *Process) resolvePath(path string) string {
	if path == "" {
		return p.cwd
	}
	if path[0] == '/' {
		return path
	}
	if p.cwd == "/" {
		return "/" + path
	}
	return p.cwd + "/" + path
}

// readPath reads a path argument from process memory.
func (p *Process) readPath(addr uint32) (string, bool) {
	s, err := p.Mem.CString(addr, 4096)
	if err != nil {
		return "", false
	}
	if strings.ContainsRune(s, 0) {
		return "", false
	}
	return p.resolvePath(s), true
}

// allocFD installs an fd entry at the lowest free slot.
func (p *Process) allocFD(e *fdEntry) (int, bool) {
	for i, f := range p.fds {
		if f == nil {
			p.fds[i] = e
			return i, true
		}
	}
	if len(p.fds) >= maxFDs {
		return 0, false
	}
	p.fds = append(p.fds, e)
	return len(p.fds) - 1, true
}

func (p *Process) fd(n uint32) *fdEntry {
	if int(n) >= len(p.fds) {
		return nil
	}
	return p.fds[n]
}

// Output returns everything the process wrote to the console.
func (p *Process) Output() string { return string(p.Stdout) }
