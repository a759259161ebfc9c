// Package vm implements the CPU of the simulated platform: an interpreter
// for the ISA defined in internal/isa with deterministic cycle accounting
// and segment-based memory protection.
//
// The cycle model replaces the Pentium rdtsc counter the paper uses for
// its microbenchmarks (Table 4): every instruction has a fixed cost and
// the kernel adds trap and verification costs on system calls, so
// measured overheads are deterministic and noise-free.
//
// A Memory is backed by two lazily grown regions, one at each end of the
// address space (program image and heap below, stack and mmap arena
// above), so a process allocates only the bytes it touches; the
// untouched gap reads as zeros. Views of memory handed to the kernel are
// read-only and valid until the next access to that memory.
//
// The stack segment is mapped read-write-execute, as was typical of the
// 2005-era x86 systems the paper targets: code injected via a buffer
// overflow can run, and is stopped only when it attempts a system call —
// exactly the boundary system call monitoring defends.
package vm

import (
	"bytes"
	"errors"
	"fmt"

	"asc/internal/isa"
)

// Instruction cycle costs.
const (
	CycleALU    = 1 // arithmetic, moves, NOP
	CycleMem    = 3 // loads, stores, push, pop
	CycleBranch = 2 // jumps and conditional branches
	CycleCall   = 4 // call, indirect call, return
)

// Fault describes a CPU fault (memory violation, illegal instruction...).
type Fault struct {
	PC   uint32
	Addr uint32
	Msg  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: fault at pc=%#x addr=%#x: %s", f.PC, f.Addr, f.Msg)
}

// ErrCycleLimit is returned by Run when the cycle budget is exhausted.
var ErrCycleLimit = errors.New("vm: cycle limit exceeded")

// Memory permission flags (match binfmt section flags).
const (
	PermRead uint8 = 1 << iota
	PermWrite
	PermExec
)

// Segment is a protected address range.
type Segment struct {
	Name  string
	Start uint32
	End   uint32 // exclusive
	Perms uint8
}

// WriteFaulter is the fault-injection hook for privileged stores
// (internal/fault). TornWrite is consulted before every KernelWrite; it
// returns how many leading bytes of the n-byte write actually land,
// modeling a torn multi-word store interrupted by a fault. Returning n
// leaves the write untouched.
type WriteFaulter interface {
	TornWrite(addr uint32, n int) int
}

// Memory is a segment-protected address space over [base, base+size).
//
// The bytes live in two lazily grown regions: low covers
// [base, base+len(low)) — image, data, bss and heap — and high covers
// [base+size-len(high), base+size) — the stack, and the mmap arena in
// paged mode. The gap between them reads as zeros and is never
// allocated; the first access that touches it grows the nearer region
// (page-rounded, at least doubling), and an access that would make the
// regions overlap collapses them into one flat slice. Every access goes
// through span, so a process pays for the memory it touches, not for the
// whole address space.
//
// Views returned by KernelRead and RawRead alias the region holding the
// span. A view is read-only, and valid until the next access to that
// memory: an access that grows a region moves the bytes, so a view taken
// earlier keeps the bytes it showed but no longer sees later stores.
//
// Each segment carries a store-generation counter that is bumped whenever
// the *application* writes into it: CPU store instructions and kernel
// writes performed on the application's behalf (UserWrite, e.g. read()
// filling a user buffer). Privileged kernel bookkeeping (KernelWrite,
// KernelStore32 — the loader, the memory-checker state update, the
// capability-set maintenance) does not bump generations. The kernel's
// verification cache uses the counters to prove that MAC-checked bytes
// are unchanged since they were last verified.
type Memory struct {
	base   uint32
	size   uint32
	low    []byte // [base, base+len(low))
	high   []byte // [base+size-len(high), base+size)
	segs   []Segment
	gens   []uint64 // store-generation counters, parallel to segs
	wfault WriteFaulter

	// Write-watch window: a single byte range whose counter is bumped by
	// every application store overlapping it (CPU store instructions and
	// UserWrite), with the same kernel/application split as the segment
	// generations. Unlike segment generations it is not part of the
	// checkpointable protection map and is not addressable by
	// FlipGenerationBit; the kernel uses it to notice application writes
	// into the control-flow state words between group-commit flushes.
	watchStart uint32
	watchEnd   uint32 // exclusive; 0 means no watch installed
	watchGen   uint64

	// Optional demand paging over the mmap arena (paging.go). With pt
	// nil every access skips the page table.
	pt    *PageTable
	pager PageFaulter
}

// SetWriteFaulter installs (or, with nil, removes) the torn-store
// injector. With no faulter installed every write lands in full.
func (m *Memory) SetWriteFaulter(f WriteFaulter) { m.wfault = f }

// NumSegments returns the number of protection segments.
func (m *Memory) NumSegments() int { return len(m.segs) }

// FlipGenerationBit XORs one bit of segment seg's store-generation
// counter, modeling a fault in the verification cache's coherence
// metadata. It reports whether the segment exists.
func (m *Memory) FlipGenerationBit(seg int, bit uint) bool {
	if seg < 0 || seg >= len(m.gens) {
		return false
	}
	m.gens[seg] ^= 1 << (bit & 63)
	return true
}

// WatchRange installs the write-watch window over [start, end) and
// returns the current watch counter. Passing start >= end removes the
// watch. Only one window exists at a time; reinstalling moves it.
func (m *Memory) WatchRange(start, end uint32) uint64 {
	if start >= end {
		m.watchStart, m.watchEnd = 0, 0
		return m.watchGen
	}
	m.watchStart, m.watchEnd = start, end
	return m.watchGen
}

// WatchGeneration returns the write-watch counter. It advances exactly
// when an application store overlapped the installed window.
func (m *Memory) WatchGeneration() uint64 { return m.watchGen }

// bumpWatch advances the watch counter if [addr, addr+n) overlaps the
// installed window.
func (m *Memory) bumpWatch(addr, end uint32) {
	if m.watchEnd != 0 && addr < m.watchEnd && m.watchStart < end {
		m.watchGen++
	}
}

// NewMemory creates an address space covering [base, base+size). No
// bytes are allocated until they are first accessed.
func NewMemory(base, size uint32) *Memory {
	return &Memory{base: base, size: size}
}

// Base returns the lowest mapped address.
func (m *Memory) Base() uint32 { return m.base }

// Limit returns the address one past the highest mapped byte.
func (m *Memory) Limit() uint32 { return m.base + m.size }

// span returns the bytes at offsets [off, off+n) from base, which the
// caller has bounds-checked. The slice lies inside one region and
// aliases it.
func (m *Memory) span(off, n uint32) []byte {
	if end := off + n; end <= uint32(len(m.low)) {
		return m.low[off:end]
	}
	if lo := m.size - uint32(len(m.high)); off >= lo {
		return m.high[off-lo : off-lo+n]
	}
	return m.grow(off, n)
}

// grow makes [off, off+n) addressable when it touches the gap between
// the regions: the region that needs fewer new bytes to cover the span
// grows to at least twice its length, page-rounded and clamped at the
// other region. A span the chosen region cannot cover without overlapping
// the other (one that straddles both) collapses them into one flat slice.
func (m *Memory) grow(off, n uint32) []byte {
	if n == 0 {
		return []byte{}
	}
	end := off + n
	lowLen, highLen := uint32(len(m.low)), uint32(len(m.high))
	hiStart := m.size - highLen
	if end-lowLen <= hiStart-off {
		if l, ok := growLen(lowLen, end, hiStart); ok {
			low := make([]byte, l)
			copy(low, m.low)
			m.low = low
			return low[off:end]
		}
	} else if l, ok := growLen(highLen, m.size-off, m.size-lowLen); ok {
		high := make([]byte, l)
		copy(high[l-highLen:], m.high)
		m.high = high
		lo := m.size - l
		return high[off-lo : end-lo]
	}
	flat := make([]byte, m.size)
	copy(flat, m.low)
	copy(flat[hiStart:], m.high)
	m.low, m.high = flat, nil
	return flat[off:end]
}

// growLen returns the new length of a region of length cur that must
// reach need bytes without exceeding max, and false when need > max.
func growLen(cur, need, max uint32) (uint32, bool) {
	if need > max {
		return 0, false
	}
	l := (uint64(need) + PageSize - 1) &^ (PageSize - 1)
	if d := 2 * uint64(cur); d > l {
		l = d
	}
	if l > uint64(max) {
		l = uint64(max)
	}
	return uint32(l), true
}

// Regions returns the lengths of the low and high regions: how many
// bytes the memory backs at each end of the address space.
func (m *Memory) Regions() (low, high uint32) {
	return uint32(len(m.low)), uint32(len(m.high))
}

// ResetRegions drops every byte and backs the memory afresh with zeroed
// regions of exactly low and high bytes. Checkpoint restore uses it to
// give the restored process the captured process's footprint before
// writing the captured bytes back. It fails if the regions would
// overlap.
func (m *Memory) ResetRegions(low, high uint32) error {
	if uint64(low)+uint64(high) > uint64(m.size) {
		return fmt.Errorf("vm: regions of %d and %d bytes overflow a %d-byte space", low, high, m.size)
	}
	m.low, m.high = make([]byte, low), make([]byte, high)
	return nil
}

// zeroPage is the all-zero page NonzeroRuns compares against.
var zeroPage [PageSize]byte

// NonzeroRuns calls fn, in address order, with every run of backed bytes
// of [start, end) whose pages hold a nonzero byte. Pages are aligned to
// PageSize in the address space; consecutive nonzero pages of one region
// form one run, clipped to [start, end). The gap between the regions
// reads as zero and is skipped, and nothing grows. Each b is a view of
// memory under the Memory contract.
func (m *Memory) NonzeroRuns(start, end uint32, fn func(addr uint32, b []byte)) {
	start, end = max(start, m.base), min(end, m.Limit())
	if start >= end {
		return
	}
	lo, hi := start-m.base, end-m.base
	m.regionRuns(m.low, 0, lo, hi, fn)
	m.regionRuns(m.high, m.size-uint32(len(m.high)), lo, hi, fn)
}

// regionRuns is NonzeroRuns over the offsets from base in [lo, hi) that
// region r, which starts at offset at, backs.
func (m *Memory) regionRuns(r []byte, at, lo, hi uint32, fn func(addr uint32, b []byte)) {
	lo, hi = max(lo, at), min(hi, at+uint32(len(r)))
	run := lo // start of the pending run
	for off := lo; off < hi; {
		pageEnd := (uint64(m.base+off) | (PageSize - 1)) + 1
		next := uint32(min(pageEnd-uint64(m.base), uint64(hi)))
		if bytes.Equal(r[off-at:next-at], zeroPage[:next-off]) {
			if run < off {
				fn(m.base+run, r[run-at:off-at])
			}
			run = next
		}
		off = next
	}
	if run < hi {
		fn(m.base+run, r[run-at:hi-at])
	}
}

// Map adds (or replaces, by name) a protection segment. Replacing a
// segment keeps its store-generation counter: remapping (e.g. brk growing
// the heap) does not make previously verified bytes look unchanged.
func (m *Memory) Map(seg Segment) {
	for i := range m.segs {
		if m.segs[i].Name == seg.Name {
			m.segs[i] = seg
			return
		}
	}
	m.segs = append(m.segs, seg)
	m.gens = append(m.gens, 0)
}

// SpanGeneration returns the store-generation counter of the segment
// wholly containing [addr, addr+n). It reports false when no single
// segment covers the span; callers treating the counter as a proof of
// immutability must then assume the bytes changed.
func (m *Memory) SpanGeneration(addr, n uint32) (uint64, bool) {
	end := addr + n
	if end < addr {
		return 0, false
	}
	for i := range m.segs {
		if addr >= m.segs[i].Start && addr < m.segs[i].End {
			if end <= m.segs[i].End {
				return m.gens[i], true
			}
			return 0, false
		}
	}
	return 0, false
}

// BumpGeneration marks [addr, addr+n) as modified by the application,
// bumping the counter of every overlapping segment.
func (m *Memory) BumpGeneration(addr, n uint32) {
	end := addr + n
	if end < addr {
		end = ^uint32(0)
	}
	for i := range m.segs {
		if m.segs[i].Start < end && addr < m.segs[i].End {
			m.gens[i]++
		}
	}
	m.bumpWatch(addr, end)
}

// storeIndex returns the index of the writable segment wholly containing
// [addr, addr+n), or -1 on a protection violation.
func (m *Memory) storeIndex(addr, n uint32) int {
	end := addr + n
	if end < addr {
		return -1
	}
	for i := range m.segs {
		if addr >= m.segs[i].Start && addr < m.segs[i].End {
			if end <= m.segs[i].End && m.segs[i].Perms&PermWrite != 0 {
				return i
			}
			return -1
		}
	}
	return -1
}

// Segments returns a copy of the protection map.
func (m *Memory) Segments() []Segment {
	return append([]Segment(nil), m.segs...)
}

// SnapshotSegments returns copies of the protection map and the
// index-aligned store-generation counters, for checkpointing.
func (m *Memory) SnapshotSegments() ([]Segment, []uint64) {
	return append([]Segment(nil), m.segs...), append([]uint64(nil), m.gens...)
}

// RestoreSegments replaces the protection map and generation counters
// wholesale. It is a kernel-privileged operation used by checkpoint
// restore, where the incoming table was already authenticated; it
// validates only structural sanity (bounds and ordering of each range).
func (m *Memory) RestoreSegments(segs []Segment, gens []uint64) error {
	if len(segs) != len(gens) {
		return fmt.Errorf("vm: %d segments, %d generation counters", len(segs), len(gens))
	}
	for i := range segs {
		if segs[i].End < segs[i].Start || segs[i].Start < m.base || segs[i].End > m.Limit() {
			return fmt.Errorf("vm: segment %s [%#x,%#x) outside [%#x,%#x)",
				segs[i].Name, segs[i].Start, segs[i].End, m.base, m.Limit())
		}
	}
	m.segs = append(m.segs[:0:0], segs...)
	m.gens = append(m.gens[:0:0], gens...)
	return nil
}

// FindSegment returns the segment covering addr, or nil.
func (m *Memory) FindSegment(addr uint32) *Segment {
	for i := range m.segs {
		if addr >= m.segs[i].Start && addr < m.segs[i].End {
			return &m.segs[i]
		}
	}
	return nil
}

func (m *Memory) check(addr, n uint32, perm uint8) bool {
	if n == 0 {
		return true
	}
	end := addr + n
	if end < addr { // wraparound
		return false
	}
	// The whole range must be inside one permission segment; ranges are
	// small (<= 4 bytes for CPU accesses).
	seg := m.FindSegment(addr)
	return seg != nil && end <= seg.End && seg.Perms&perm == perm
}

func (m *Memory) inBounds(addr, n uint32) bool {
	return addr >= m.base && addr+n >= addr && addr+n <= m.Limit()
}

// load32 reads without permission checks (kernel privilege).
func (m *Memory) load32(addr uint32) (uint32, bool) {
	if !m.inBounds(addr, 4) {
		return 0, false
	}
	b := m.span(addr-m.base, 4)
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, true
}

func (m *Memory) store32(addr, v uint32) bool {
	if !m.inBounds(addr, 4) {
		return false
	}
	b := m.span(addr-m.base, 4)
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	return true
}

// KernelRead returns a view of n bytes at addr with kernel privilege
// (bounds check only). The view aliases VM memory under the contract in
// the Memory doc: read-only, valid until the next access.
func (m *Memory) KernelRead(addr, n uint32) ([]byte, error) {
	if !m.inBounds(addr, n) {
		return nil, &Fault{Addr: addr, Msg: fmt.Sprintf("kernel read of %d bytes out of bounds", n)}
	}
	if err := m.pageCheck(addr, n, 0); err != nil {
		return nil, err
	}
	return m.span(addr-m.base, n), nil
}

// KernelWrite copies b into memory at addr with kernel privilege. An
// installed WriteFaulter may tear the store: only a prefix of b lands.
// Bounds are checked against the full intended write either way.
func (m *Memory) KernelWrite(addr uint32, b []byte) error {
	if !m.inBounds(addr, uint32(len(b))) {
		return &Fault{Addr: addr, Msg: fmt.Sprintf("kernel write of %d bytes out of bounds", len(b))}
	}
	if err := m.pageCheck(addr, uint32(len(b)), 0); err != nil {
		return err
	}
	if m.wfault != nil {
		if n := m.wfault.TornWrite(addr, len(b)); n >= 0 && n < len(b) {
			b = b[:n]
		}
	}
	copy(m.span(addr-m.base, uint32(len(b))), b)
	return nil
}

// UserWrite copies b into memory at addr on behalf of the application
// (system call results delivered into user buffers). It has kernel
// privilege like KernelWrite but bumps the store-generation counters, so
// data the application could have influenced never looks immutable.
func (m *Memory) UserWrite(addr uint32, b []byte) error {
	if err := m.KernelWrite(addr, b); err != nil {
		return err
	}
	m.BumpGeneration(addr, uint32(len(b)))
	return nil
}

// KernelLoad32 reads a 32-bit word with kernel privilege.
func (m *Memory) KernelLoad32(addr uint32) (uint32, error) {
	if err := m.pageCheck(addr, 4, 0); err != nil {
		return 0, err
	}
	v, ok := m.load32(addr)
	if !ok {
		return 0, &Fault{Addr: addr, Msg: "kernel load out of bounds"}
	}
	return v, nil
}

// KernelStore32 writes a 32-bit word with kernel privilege. Like
// KernelWrite it is subject to an installed WriteFaulter.
func (m *Memory) KernelStore32(addr, v uint32) error {
	if m.wfault != nil {
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return m.KernelWrite(addr, b[:])
	}
	if err := m.pageCheck(addr, 4, 0); err != nil {
		return err
	}
	if !m.store32(addr, v) {
		return &Fault{Addr: addr, Msg: "kernel store out of bounds"}
	}
	return nil
}

// CString reads a NUL-terminated string at addr with kernel privilege,
// failing if no NUL appears within max bytes.
func (m *Memory) CString(addr, max uint32) (string, error) {
	if !m.inBounds(addr, 1) {
		return "", &Fault{Addr: addr, Msg: "string read out of bounds"}
	}
	off := addr - m.base
	limit := m.size - off
	if limit > max {
		limit = max
	}
	// Scan page by page: in paged mode each page is faulted in lazily, so
	// the string's length, not max, decides how many pages the lookup
	// touches.
	for i := uint32(0); i < limit; {
		n := PageSize - (addr+i)&(PageSize-1)
		if n > limit-i {
			n = limit - i
		}
		if err := m.pageCheck(addr+i, 1, 0); err != nil {
			return "", err
		}
		if j := bytes.IndexByte(m.span(off+i, n), 0); j >= 0 {
			return string(m.span(off, i+uint32(j))), nil
		}
		i += n
	}
	return "", &Fault{Addr: addr, Msg: "unterminated string"}
}

// TrapHandler receives system call traps from the CPU.
type TrapHandler interface {
	// Trap handles a SYSCALL or ASYSCALL executed at address site.
	// It returns the value placed in R0. If halt is true the CPU stops
	// (the process exited or was killed by the monitor).
	Trap(c *CPU, site uint32, authenticated bool) (ret uint32, halt bool, err error)
}

// CPU is one simulated hardware thread.
type CPU struct {
	Regs   [isa.NumRegs]uint32
	PC     uint32
	Mem    *Memory
	Cycles uint64
	Halted bool

	handler TrapHandler

	// icache holds predecoded instructions for the static text range.
	icacheBase uint32
	icache     []isa.Instr
	icacheOK   []bool
}

// New creates a CPU over mem that delivers traps to handler.
func New(mem *Memory, handler TrapHandler) *CPU {
	return &CPU{Mem: mem, handler: handler}
}

// PrimeICache predecodes the instruction stream in [start, end) so that
// Step avoids re-decoding hot loops. Faulty encodings are left to fault
// lazily at execution time.
func (c *CPU) PrimeICache(start, end uint32) {
	if end <= start {
		return
	}
	n := (end - start) / isa.InstrSize
	c.icacheBase = start
	c.icache = make([]isa.Instr, n)
	c.icacheOK = make([]bool, n)
	for i := uint32(0); i < n; i++ {
		addr := start + i*isa.InstrSize
		b, err := c.Mem.KernelRead(addr, isa.InstrSize)
		if err != nil {
			continue
		}
		in, err := isa.Decode(b)
		if err != nil {
			continue
		}
		c.icache[i] = in
		c.icacheOK[i] = true
	}
}

func (c *CPU) fetch() (isa.Instr, error) {
	pc := c.PC
	if pc >= c.icacheBase && pc-c.icacheBase < uint32(len(c.icache))*isa.InstrSize && (pc-c.icacheBase)%isa.InstrSize == 0 {
		idx := (pc - c.icacheBase) / isa.InstrSize
		if c.icacheOK[idx] {
			return c.icache[idx], nil
		}
	}
	if !c.Mem.check(pc, isa.InstrSize, PermRead|PermExec) {
		return isa.Instr{}, &Fault{PC: pc, Addr: pc, Msg: "instruction fetch protection violation"}
	}
	if err := c.Mem.pageCheck(pc, isa.InstrSize, PermRead|PermExec); err != nil {
		return isa.Instr{}, err
	}
	b, err := c.Mem.KernelRead(pc, isa.InstrSize)
	if err != nil {
		return isa.Instr{}, &Fault{PC: pc, Addr: pc, Msg: "instruction fetch out of bounds"}
	}
	in, err := isa.Decode(b)
	if err != nil {
		return isa.Instr{}, &Fault{PC: pc, Addr: pc, Msg: fmt.Sprintf("illegal instruction: %v", err)}
	}
	return in, nil
}

func (c *CPU) load(addr uint32, size uint32) (uint32, error) {
	if !c.Mem.check(addr, size, PermRead) {
		return 0, &Fault{PC: c.PC, Addr: addr, Msg: "read protection violation"}
	}
	if err := c.Mem.pageCheck(addr, size, PermRead); err != nil {
		return 0, err
	}
	if size == 1 {
		b, err := c.Mem.KernelRead(addr, 1)
		if err != nil {
			return 0, err
		}
		return uint32(b[0]), nil
	}
	v, ok := c.Mem.load32(addr)
	if !ok {
		return 0, &Fault{PC: c.PC, Addr: addr, Msg: "read out of bounds"}
	}
	return v, nil
}

func (c *CPU) store(addr, v uint32, size uint32) error {
	idx := c.Mem.storeIndex(addr, size)
	if idx < 0 {
		return &Fault{PC: c.PC, Addr: addr, Msg: "write protection violation"}
	}
	if err := c.Mem.pageCheck(addr, size, PermWrite); err != nil {
		return err
	}
	c.Mem.gens[idx]++
	c.Mem.bumpWatch(addr, addr+size)
	if size == 1 {
		if !c.Mem.inBounds(addr, 1) {
			return &Fault{PC: c.PC, Addr: addr, Msg: "write out of bounds"}
		}
		c.Mem.span(addr-c.Mem.base, 1)[0] = byte(v)
		return nil
	}
	if !c.Mem.store32(addr, v) {
		return &Fault{PC: c.PC, Addr: addr, Msg: "write out of bounds"}
	}
	return nil
}

// Step executes a single instruction.
func (c *CPU) Step() error {
	if c.Halted {
		return errors.New("vm: cpu halted")
	}
	in, err := c.fetch()
	if err != nil {
		return err
	}
	next := c.PC + isa.InstrSize
	r := &c.Regs

	switch in.Op {
	case isa.OpNOP:
		c.Cycles += CycleALU
	case isa.OpHALT:
		c.Cycles += CycleALU
		c.Halted = true
	case isa.OpMOV:
		r[in.Rd] = r[in.Rs]
		c.Cycles += CycleALU
	case isa.OpMOVI:
		r[in.Rd] = in.Imm
		c.Cycles += CycleALU
	case isa.OpLOAD:
		v, err := c.load(r[in.Rs]+in.Imm, 4)
		if err != nil {
			return err
		}
		r[in.Rd] = v
		c.Cycles += CycleMem
	case isa.OpLOADB:
		v, err := c.load(r[in.Rs]+in.Imm, 1)
		if err != nil {
			return err
		}
		r[in.Rd] = v
		c.Cycles += CycleMem
	case isa.OpSTORE:
		if err := c.store(r[in.Rd]+in.Imm, r[in.Rs], 4); err != nil {
			return err
		}
		c.Cycles += CycleMem
	case isa.OpSTOREB:
		if err := c.store(r[in.Rd]+in.Imm, r[in.Rs], 1); err != nil {
			return err
		}
		c.Cycles += CycleMem
	case isa.OpADD:
		r[in.Rd] = r[in.Rs] + r[in.Rt]
		c.Cycles += CycleALU
	case isa.OpSUB:
		r[in.Rd] = r[in.Rs] - r[in.Rt]
		c.Cycles += CycleALU
	case isa.OpMUL:
		r[in.Rd] = r[in.Rs] * r[in.Rt]
		c.Cycles += CycleALU
	case isa.OpDIV:
		if r[in.Rt] == 0 {
			return &Fault{PC: c.PC, Msg: "division by zero"}
		}
		r[in.Rd] = r[in.Rs] / r[in.Rt]
		c.Cycles += CycleALU
	case isa.OpMOD:
		if r[in.Rt] == 0 {
			return &Fault{PC: c.PC, Msg: "division by zero"}
		}
		r[in.Rd] = r[in.Rs] % r[in.Rt]
		c.Cycles += CycleALU
	case isa.OpAND:
		r[in.Rd] = r[in.Rs] & r[in.Rt]
		c.Cycles += CycleALU
	case isa.OpOR:
		r[in.Rd] = r[in.Rs] | r[in.Rt]
		c.Cycles += CycleALU
	case isa.OpXOR:
		r[in.Rd] = r[in.Rs] ^ r[in.Rt]
		c.Cycles += CycleALU
	case isa.OpSHL:
		r[in.Rd] = r[in.Rs] << (r[in.Rt] & 31)
		c.Cycles += CycleALU
	case isa.OpSHR:
		r[in.Rd] = r[in.Rs] >> (r[in.Rt] & 31)
		c.Cycles += CycleALU
	case isa.OpADDI:
		r[in.Rd] = r[in.Rs] + in.Imm
		c.Cycles += CycleALU
	case isa.OpMULI:
		r[in.Rd] = r[in.Rs] * in.Imm
		c.Cycles += CycleALU
	case isa.OpANDI:
		r[in.Rd] = r[in.Rs] & in.Imm
		c.Cycles += CycleALU
	case isa.OpORI:
		r[in.Rd] = r[in.Rs] | in.Imm
		c.Cycles += CycleALU
	case isa.OpXORI:
		r[in.Rd] = r[in.Rs] ^ in.Imm
		c.Cycles += CycleALU
	case isa.OpSHLI:
		r[in.Rd] = r[in.Rs] << (in.Imm & 31)
		c.Cycles += CycleALU
	case isa.OpSHRI:
		r[in.Rd] = r[in.Rs] >> (in.Imm & 31)
		c.Cycles += CycleALU
	case isa.OpJMP:
		next = in.Imm
		c.Cycles += CycleBranch
	case isa.OpBEQ:
		if r[in.Rs] == r[in.Rt] {
			next = in.Imm
		}
		c.Cycles += CycleBranch
	case isa.OpBNE:
		if r[in.Rs] != r[in.Rt] {
			next = in.Imm
		}
		c.Cycles += CycleBranch
	case isa.OpBLT:
		if int32(r[in.Rs]) < int32(r[in.Rt]) {
			next = in.Imm
		}
		c.Cycles += CycleBranch
	case isa.OpBGE:
		if int32(r[in.Rs]) >= int32(r[in.Rt]) {
			next = in.Imm
		}
		c.Cycles += CycleBranch
	case isa.OpBLTU:
		if r[in.Rs] < r[in.Rt] {
			next = in.Imm
		}
		c.Cycles += CycleBranch
	case isa.OpBGEU:
		if r[in.Rs] >= r[in.Rt] {
			next = in.Imm
		}
		c.Cycles += CycleBranch
	case isa.OpCALL, isa.OpCALLR:
		r[isa.SP] -= 4
		if err := c.store(r[isa.SP], next, 4); err != nil {
			return err
		}
		if in.Op == isa.OpCALL {
			next = in.Imm
		} else {
			next = r[in.Rs]
		}
		c.Cycles += CycleCall
	case isa.OpRET:
		v, err := c.load(r[isa.SP], 4)
		if err != nil {
			return err
		}
		r[isa.SP] += 4
		next = v
		c.Cycles += CycleCall
	case isa.OpPUSH:
		r[isa.SP] -= 4
		if err := c.store(r[isa.SP], r[in.Rs], 4); err != nil {
			return err
		}
		c.Cycles += CycleMem
	case isa.OpPOP:
		v, err := c.load(r[isa.SP], 4)
		if err != nil {
			return err
		}
		r[isa.SP] += 4
		r[in.Rd] = v
		c.Cycles += CycleMem
	case isa.OpSYSCALL, isa.OpASYSCALL:
		pcBefore := c.PC
		ret, halt, err := c.handler.Trap(c, c.PC, in.Op == isa.OpASYSCALL)
		if err != nil {
			return err
		}
		if halt {
			c.Halted = true
			return nil
		}
		r[isa.R0] = ret
		if c.PC != pcBefore {
			// The handler replaced the program image (execve): resume at
			// the address it installed rather than the next instruction.
			next = c.PC
		}
	default:
		return &Fault{PC: c.PC, Msg: fmt.Sprintf("unimplemented opcode %v", in.Op)}
	}
	if !c.Halted {
		c.PC = next
	}
	return nil
}

// Reset points the CPU at a fresh address space and entry state,
// preserving the cycle counter. Used by execve to replace the program
// image in place.
func (c *CPU) Reset(mem *Memory, pc, sp uint32) {
	c.Mem = mem
	c.Regs = [isa.NumRegs]uint32{}
	c.Regs[isa.SP] = sp
	c.PC = pc
	c.icache = nil
	c.icacheOK = nil
	c.icacheBase = 0
}

// Run executes until the CPU halts, faults, or exceeds maxCycles.
func (c *CPU) Run(maxCycles uint64) error {
	for !c.Halted {
		if c.Cycles >= maxCycles {
			return fmt.Errorf("%w (%d cycles)", ErrCycleLimit, c.Cycles)
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}
