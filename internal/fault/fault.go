// Package fault is the deterministic fault-injection engine for the
// authenticated-system-call platform. An Engine perturbs one well-defined
// point of the simulated machine — a bit in an auth record, an
// authenticated string, the control-flow policy state, a verify-cache
// generation counter; a dropped or duplicated memory-checker nonce
// update; a torn multi-word state store — and the campaign driver checks
// that the kernel detects exactly the faults that land inside the
// MAC-protected surface.
//
// Every decision an Engine makes (which eligible trap to fire at, which
// bit or byte to perturb) is precomputed from its seed at construction,
// so a campaign run is a pure function of (seed, victim, class): the same
// seed yields byte-identical outcomes with the verify cache on or off and
// in Kill or Deny enforcement.
//
// Bit flips are applied with application-visible stores (vm.UserWrite),
// modeling the paper's attacker — a compromised application scribbling on
// its own protected metadata — and keeping the PR-1 verify cache honest:
// the flip bumps the store-generation counters exactly as a real
// application store would.
package fault

import (
	"encoding/binary"
	"fmt"
	"slices"

	"asc/internal/isa"
	"asc/internal/kernel"
	"asc/internal/policy"
	"asc/internal/sys"
)

// Class is one fault-injection class.
type Class string

// The fault classes of the campaign.
const (
	// FlipRecord flips one bit of the 32-byte fixed auth record.
	FlipRecord Class = "flip-auth-record"
	// FlipString flips one bit of an authenticated string argument
	// (header or contents) at a string-constrained site.
	FlipString Class = "flip-auth-string"
	// FlipCFState flips one bit of the {lastBlock, lbMAC} policy state.
	FlipCFState Class = "flip-cf-state"
	// FlipDescriptor flips one meaningful policy-descriptor bit.
	FlipDescriptor Class = "flip-descriptor"
	// FlipCacheGen flips one bit of a verify-cache store-generation
	// counter: monitor-internal metadata outside the MAC boundary. The
	// kernel must survive it cleanly (at worst a spurious cache miss).
	FlipCacheGen Class = "flip-cache-gen"
	// DropNonce drops one in-kernel memory-checker nonce update.
	DropNonce Class = "drop-nonce"
	// DupNonce applies one nonce update twice.
	DupNonce Class = "dup-nonce"
	// TornStore tears the 16-byte state-MAC store, leaving a prefix.
	TornStore Class = "torn-state-store"
	// FlipSockPort flips one bit of the packed destination-address
	// register at a socket-send site. The address is a constrained
	// immediate in the call encoding, so redirecting traffic to a
	// different port must surface as a call-MAC mismatch.
	FlipSockPort Class = "net-flip-port"
	// FlipSockMsg flips one bit of the authenticated payload bytes at a
	// socket-send site (content only, not the AS header): a tampered
	// fixed protocol message must fail the string check.
	FlipSockMsg Class = "net-flip-msg"
	// ReplaySockCF snapshots the {lastBlock, lbMAC} policy state at a
	// blocking-capable socket receive and restores it at the next trap:
	// a replayed control-flow state must fail the memory checker, whose
	// in-kernel counter advanced in between.
	ReplaySockCF Class = "net-replay-cf"
	// FlipPollFD flips one bit of the pollfd-set pointer register at a
	// poll site. The pointer is a MOVI-loaded constant — a
	// policy-constrained immediate in the call encoding — so steering
	// the event loop at a different pollfd array must surface as a
	// call-MAC mismatch.
	FlipPollFD Class = "poll-flip-fds"
	// ReplayPollCF snapshots the {lastBlock, lbMAC} policy state at a
	// blocking-capable poll and restores it at the next trap: stale
	// readiness state replayed into the event loop must fail the memory
	// checker at the following call.
	ReplayPollCF Class = "poll-replay-cf"
	// SwapFlip flips one bit of a sealed swap frame on its way to the
	// swap device: a bit rot (or scribble) on swapped-out memory must
	// fail the frame's CMAC when the page faults back in.
	SwapFlip Class = "swap-page-flip"
	// SwapReplay captures a sealed swap frame and substitutes it at the
	// next eviction of the same page: a stale-but-genuinely-sealed frame
	// must fail the generation comparison at fault-in.
	SwapReplay Class = "swap-page-replay"
)

// Classes returns the Engine's fault classes — the kernel-layer
// scenarios — in canonical order.
func Classes() []Class {
	return []Class{
		FlipRecord, FlipString, FlipCFState, FlipDescriptor,
		FlipCacheGen, DropNonce, DupNonce, TornStore,
		FlipSockPort, FlipSockMsg, ReplaySockCF,
		FlipPollFD, ReplayPollCF,
		SwapFlip, SwapReplay,
	}
}

// Expect describes the contract a fault class has with the platform.
type Expect struct {
	// Detected: the fault lands inside the MAC-protected surface and
	// must be flagged — killed or denied and recorded on the kernel
	// layer, rejected with a canonical reason above it — whenever it
	// fired.
	Detected bool
	// Deferred: detection happens at a trap after the injection point
	// (nonce and torn-store faults surface at the next control-flow
	// check).
	Deferred bool
	// Reasons is the set of kill or rejection reasons a detection may
	// carry.
	Reasons []string
}

// Expectation returns the contract of any scenario in the registry,
// and an empty one for an unknown class.
func Expectation(c Class) Expect {
	if sc, ok := lookup(c); ok {
		return sc.Expect
	}
	return Expect{}
}

// ReasonAllowed reports whether reason is in the class's allowed set.
func (e Expect) ReasonAllowed(reason string) bool {
	return slices.Contains(e.Reasons, reason)
}

// Engine injects exactly one fault of one class into one process run. It
// implements kernel.Injector; for TornStore it is also installed as the
// address space's vm.WriteFaulter.
type Engine struct {
	class Class

	// Decisions, fixed at construction.
	trigger int    // fire at the trigger-th eligible trap (0-based)
	pick    uint64 // selects among applicable targets (bit, arg, segment)

	seen  int
	fired bool

	// armed* carry state between BeforeVerify and the deferred hooks.
	armedNonce  bool
	armedTorn   bool
	tornAddr    uint32
	tornKeep    int
	armedReplay bool
	replayPtr   uint32
	replayState []byte
	armedSwap   bool
	swapPage    uint32
	swapBlob    []byte

	// FiredNum and FiredSite record the trap at which the fault was
	// injected (valid once Fired() is true).
	FiredNum  uint16
	FiredSite uint32
}

// triggerWindow bounds how deep into the eligible-trap sequence a fault
// may fire. Victims make a handful of calls; a window of 3 keeps every
// draw inside the shortest victim's eligible run while still varying the
// injection point across trials.
const triggerWindow = 3

// NewEngine builds an engine whose decisions are a pure function of
// (class, seed).
func NewEngine(class Class, seed uint64) *Engine {
	s := seed ^ uint64(len(class))<<56
	for _, b := range []byte(class) {
		s = s*1099511628211 + uint64(b) // FNV-style fold of the class
	}
	r1 := splitmix(&s)
	r2 := splitmix(&s)
	return &Engine{
		class:   class,
		trigger: int(r1 % triggerWindow),
		pick:    r2,
	}
}

// splitmix is SplitMix64: a tiny, well-mixed deterministic generator.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Class returns the engine's fault class.
func (e *Engine) Class() Class { return e.class }

// Fired reports whether the fault has been injected.
func (e *Engine) Fired() bool { return e.fired }

// BeforeVerify implements kernel.Injector: it observes every
// authenticated trap before verification and perturbs the platform at
// the chosen one.
func (e *Engine) BeforeVerify(p *kernel.Process, num uint16, site uint32, recAddr uint32) {
	if e.armedReplay && !e.fired {
		// The replay arms at the socket receive; the stale state is
		// written back here, just before the next trap's Step-3 check.
		// FiredNum/FiredSite keep the injection (arm) point.
		_ = p.Mem.UserWrite(e.replayPtr, e.replayState)
		e.armedReplay = false
		e.fired = true
		return
	}
	if e.fired || e.armedNonce || e.armedTorn {
		return
	}
	rec, recOK := readRecord(p, recAddr)

	switch e.class {
	case FlipRecord:
		if !e.step() {
			return
		}
		e.flipUserBit(p, recAddr, policy.AuthRecordSize)
	case FlipDescriptor:
		if !e.step() {
			return
		}
		descWord, err := p.Mem.KernelLoad32(recAddr)
		if err != nil {
			return
		}
		descWord ^= 1 << (e.pick % policy.NumDescriptorBits)
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], descWord)
		_ = p.Mem.UserWrite(recAddr, b[:])
		e.fire(num, site)
	case FlipString:
		if !recOK {
			return
		}
		var strArgs []int
		for i := 0; i < 5; i++ {
			if rec.Desc.ArgString(i) {
				strArgs = append(strArgs, i)
			}
		}
		if len(strArgs) == 0 {
			return // site has no authenticated string: not eligible
		}
		if !e.step() {
			return
		}
		arg := strArgs[e.pick%uint64(len(strArgs))]
		ptr := p.CPU.Regs[isa.R1+isa.Reg(arg)]
		length, err := p.Mem.KernelLoad32(ptr - policy.ASHeaderSize)
		if err != nil || length > policy.MaxASLen {
			return
		}
		e.flipUserBit(p, ptr-policy.ASHeaderSize, int(policy.ASHeaderSize+length))
	case FlipCFState:
		if !recOK || !rec.Desc.ControlFlow() {
			return
		}
		if !e.step() {
			return
		}
		e.flipUserBit(p, rec.LbPtr, policy.PolicyStateSize)
	case FlipCacheGen:
		if !e.step() {
			return
		}
		segs := p.Mem.NumSegments()
		if segs == 0 {
			return
		}
		p.Mem.FlipGenerationBit(int(e.pick%uint64(segs)), uint((e.pick>>32)%64))
		e.fire(num, site)
	case DropNonce, DupNonce:
		if !recOK || !rec.Desc.ControlFlow() {
			return
		}
		if !e.step() {
			return
		}
		e.armedNonce = true
	case FlipSockPort:
		if num != sys.SysSendto {
			return // only send sites carry a packed destination address
		}
		if !e.step() {
			return
		}
		// The address argument (index 4) lives in R5; the flip is a
		// register perturbation — the application computing a different
		// destination — so there is no memory store to generation-track.
		// Both the cold path and a cache hit rebuild the call encoding
		// from live registers, which is exactly what must catch this.
		p.CPU.Regs[isa.R5] ^= 1 << (e.pick % 32)
		e.fire(num, site)
	case FlipSockMsg:
		if num != sys.SysSendto || !recOK || !rec.Desc.ArgString(1) {
			return // payload is not an authenticated string: not eligible
		}
		if !e.step() {
			return
		}
		ptr := p.CPU.Regs[isa.R2]
		length, err := p.Mem.KernelLoad32(ptr - policy.ASHeaderSize)
		if err != nil || length > policy.MaxASLen {
			return
		}
		// Content bytes only — header flips are FlipString territory —
		// so the detection reason is pinned to the string check.
		e.flipUserBit(p, ptr, int(length))
	case FlipPollFD:
		if num != sys.SysPoll {
			return // only poll sites carry a pollfd-set pointer
		}
		if !e.step() {
			return
		}
		// The pollfd-set address (arg 0) lives in R1 as a MOVI-loaded
		// constant; like FlipSockPort this is a register perturbation —
		// the event loop handing the kernel a different array — so there
		// is no memory store to generation-track, and both the cold path
		// and a cache hit must catch it when rebuilding the call encoding
		// from live registers.
		p.CPU.Regs[isa.R1] ^= 1 << (e.pick % 32)
		e.fire(num, site)
	case ReplayPollCF:
		if num != sys.SysPoll || !recOK || !rec.Desc.ControlFlow() {
			return
		}
		if !e.step() {
			return
		}
		b, err := p.Mem.KernelRead(rec.LbPtr, policy.PolicyStateSize)
		if err != nil {
			return
		}
		e.armedReplay = true
		e.replayPtr = rec.LbPtr
		e.replayState = append([]byte(nil), b...)
		e.FiredNum, e.FiredSite = num, site
	case ReplaySockCF:
		if num != sys.SysRecvfrom || !recOK || !rec.Desc.ControlFlow() {
			return
		}
		if !e.step() {
			return
		}
		b, err := p.Mem.KernelRead(rec.LbPtr, policy.PolicyStateSize)
		if err != nil {
			return
		}
		e.armedReplay = true
		e.replayPtr = rec.LbPtr
		e.replayState = append([]byte(nil), b...)
		e.FiredNum, e.FiredSite = num, site
	case TornStore:
		if !recOK || !rec.Desc.ControlFlow() {
			return
		}
		if !e.step() {
			return
		}
		// Tear the state-MAC store of this trap's Step-3 update,
		// keeping a strict prefix of the 16 MAC bytes.
		e.armedTorn = true
		e.tornAddr = rec.LbPtr + 4
		e.tornKeep = int(e.pick % 16)
		e.FiredNum, e.FiredSite = num, site
	}
}

// step counts an eligible trap; true means this is the chosen one.
func (e *Engine) step() bool {
	e.seen++
	return e.seen-1 == e.trigger
}

// fire marks the fault injected at the given trap.
func (e *Engine) fire(num uint16, site uint32) {
	e.fired = true
	e.FiredNum, e.FiredSite = num, site
}

// flipUserBit flips one pick-selected bit inside [addr, addr+n) with an
// application-visible store.
func (e *Engine) flipUserBit(p *kernel.Process, addr uint32, n int) {
	if n <= 0 {
		return
	}
	bit := e.pick % uint64(n*8)
	target := addr + uint32(bit/8)
	old, err := p.Mem.KernelRead(target, 1)
	if err != nil {
		return
	}
	if err := p.Mem.UserWrite(target, []byte{old[0] ^ 1<<(bit%8)}); err != nil {
		return
	}
	e.fire(uint16(p.CPU.Regs[isa.R0]), p.CPU.PC)
}

// NonceUpdate implements kernel.Injector: the in-kernel counter advances
// by the returned amount (1 is a faithful update).
func (e *Engine) NonceUpdate(p *kernel.Process) int {
	if !e.armedNonce || e.fired {
		return 1
	}
	e.fired = true
	e.armedNonce = false
	if e.class == DropNonce {
		return 0
	}
	return 2
}

// swapFaultNum mirrors the kernel's pseudo syscall number for
// violations on the page-fault path; there is no trap in flight when a
// swap fault is injected, so FiredNum carries this marker and FiredSite
// the page index.
const swapFaultNum uint16 = 0xffff

// SwapEvict implements kernel.SwapInjector: it observes every sealed
// frame on its way to the swap device and perturbs the chosen one. The
// trigger counts evictions, not traps — swap classes never fire from
// BeforeVerify.
func (e *Engine) SwapEvict(p *kernel.Process, page uint32, gen uint64, blob []byte) []byte {
	if e.fired {
		return nil
	}
	switch e.class {
	case SwapFlip:
		if !e.step() {
			return nil
		}
		mut := append([]byte(nil), blob...)
		bit := e.pick % uint64(len(mut)*8)
		mut[bit/8] ^= 1 << (bit % 8)
		e.fire(swapFaultNum, page)
		return mut
	case SwapReplay:
		if !e.armedSwap {
			if e.step() {
				// Capture the frame; the stale copy substitutes at the
				// next eviction of the same page, whose generation will
				// have advanced past the captured one.
				e.armedSwap = true
				e.swapPage = page
				e.swapBlob = append([]byte(nil), blob...)
			}
			return nil
		}
		if page != e.swapPage {
			return nil
		}
		e.fire(swapFaultNum, page)
		return e.swapBlob
	}
	return nil
}

// TornWrite implements vm.WriteFaulter: the armed state-MAC store is
// truncated to the chosen prefix; every other write is untouched.
func (e *Engine) TornWrite(addr uint32, n int) int {
	if !e.armedTorn || e.fired || addr != e.tornAddr {
		return n
	}
	e.fired = true
	e.armedTorn = false
	return e.tornKeep
}

// readRecord decodes the fixed auth record at recAddr.
func readRecord(p *kernel.Process, recAddr uint32) (policy.AuthRecord, bool) {
	b, err := p.Mem.KernelRead(recAddr, policy.AuthRecordSize)
	if err != nil {
		return policy.AuthRecord{}, false
	}
	rec, err := policy.DecodeAuthRecord(b)
	if err != nil {
		return policy.AuthRecord{}, false
	}
	return rec, true
}

// String renders the engine's identity for reports.
func (e *Engine) String() string {
	return fmt.Sprintf("%s(trigger=%d)", e.class, e.trigger)
}
