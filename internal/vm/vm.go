// Package vm implements the CPU of the simulated platform: an interpreter
// for the ISA defined in internal/isa with deterministic cycle accounting
// and segment-based memory protection.
//
// The cycle model replaces the Pentium rdtsc counter the paper uses for
// its microbenchmarks (Table 4): every instruction has a fixed cost and
// the kernel adds trap and verification costs on system calls, so
// measured overheads are deterministic and noise-free.
//
// A Memory is a sparse array of 4 KiB pages. A page is allocated on its
// first write, and a read of a page never written sees one shared zero
// page, so a process pays for the pages it writes, not for its address
// space. Views of memory handed to the kernel are read-only and valid
// until the next write to that memory (see Memory).
//
// The stack segment is mapped read-write-execute, as was typical of the
// 2005-era x86 systems the paper targets: code injected via a buffer
// overflow can run, and is stopped only when it attempts a system call —
// exactly the boundary system call monitoring defends.
package vm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"unsafe"

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
// The bytes live in pages of PageSize bytes, aligned in the address
// space. A page is allocated on its first write, by any writer, and freed
// by Zero; a read of a page that is not allocated sees the shared zero
// page and allocates nothing. The pages one write allocates share one
// block of the heap, which the collector reclaims once Zero has freed
// all of them. The allocated pages are kept in address
// order, and a small direct-mapped cache of the pages last looked up
// (by page number modulo its size) keeps a lookup off that index on the
// load/store path, so the image, heap and stack pages a loop touches do
// not evict each other.
//
// Views. KernelRead and RawRead return a view of a span: a slice of its
// page (or of the zero page) when the span lies in one page, a fresh copy
// when it crosses a page boundary. A view is read-only and valid until
// the next write to the memory. Reads neither move nor allocate pages, so
// a caller may hold several views at once; whether a view shows a later
// write is unspecified. KernelPieces returns a span as per-page views
// instead, for callers that copy it on anyway, with no copy of its own.
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
	base uint32
	size uint32
	// The allocated pages, by page number (address >> PageShift), in
	// address order.
	pages []pageRef
	// cache[pn%len(cache)] is the page last looked up that maps there.
	cache  [8]pageRef
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

	// text, when set, is the decoded view of the bytes the memory holds
	// at [text.base, text.end()): fetch reads it instead of decoding.
	// AttachText sets it; writes into that range drop it.
	text *Text
}

// Text is the decoded text of one binary: every instruction word of it,
// decoded once. A Text is immutable, so every process that runs the
// binary shares one; a Memory fetches from it only while it holds the
// exact bytes the Text was decoded from (see AttachText).
type Text struct {
	base uint32
	code []byte      // the words decoded, copied
	ins  []isa.Instr // ins[i] is the word at base+i*InstrSize, decoded
	ok   []bool      // whether that word decodes; one that does not faults at fetch
}

// DecodeText decodes code, text that loads at base.
func DecodeText(base uint32, code []byte) *Text {
	n := len(code) / isa.InstrSize
	t := &Text{base: base, code: bytes.Clone(code[:n*isa.InstrSize]), ins: make([]isa.Instr, n), ok: make([]bool, n)}
	for i := range t.ins {
		in, err := isa.Decode(t.code[i*isa.InstrSize:])
		t.ins[i], t.ok[i] = in, err == nil
	}
	return t
}

func (t *Text) end() uint32 { return t.base + uint32(len(t.code)) }

// AttachText makes fetch read instructions from t, and reports whether it
// did. It attaches t only if the memory holds exactly t's bytes now,
// inside one readable and executable segment and outside the paged arena,
// so a fetch through the view decides as a fetch from memory would. Any
// write into that range, a segment mapped over it, RestoreSegments and
// SetPaging drop the view again; fetch then decodes from memory.
func (m *Memory) AttachText(t *Text) bool {
	m.text = nil
	if t == nil || !m.inBounds(t.base, uint32(len(t.code))) || !m.check(t.base, uint32(len(t.code)), PermRead|PermExec) ||
		m.pt != nil && t.base < m.pt.End() && m.pt.base < t.end() {
		return false
	}
	for a := t.base; a < t.end(); {
		n := min(t.end()-a, PageSize-a&(PageSize-1))
		if !bytes.Equal(m.view(a, n), t.code[a-t.base:][:n]) {
			return false
		}
		a += n
	}
	m.text = t
	return true
}

// Text returns the decoded text attached by AttachText, or nil.
func (m *Memory) Text() *Text { return m.text }

// dropText drops the decoded view if [addr, end) overlaps its bytes.
func (m *Memory) dropText(addr, end uint32) {
	if m.text != nil && addr < m.text.end() && m.text.base < end {
		m.text = nil
	}
}

// page is one page of memory.
type page [PageSize]byte

// zeroPage is what a read of an unallocated page sees. Nothing writes it.
var zeroPage page

// pageRef is a page and its page number.
type pageRef struct {
	pn uint32
	p  *page
}

// noCache is the empty lookup cache: its page numbers are beyond every
// page.
var noCache = [8]pageRef{{pn: ^uint32(0)}, {pn: ^uint32(0)}, {pn: ^uint32(0)}, {pn: ^uint32(0)},
	{pn: ^uint32(0)}, {pn: ^uint32(0)}, {pn: ^uint32(0)}, {pn: ^uint32(0)}}

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
// page is allocated until it is first written.
func NewMemory(base, size uint32) *Memory {
	return &Memory{base: base, size: size, cache: noCache}
}

// Base returns the lowest mapped address.
func (m *Memory) Base() uint32 { return m.base }

// Limit returns the address one past the highest mapped byte.
func (m *Memory) Limit() uint32 { return m.base + m.size }

// lookup returns page pn, or the zero page if it is not allocated.
func (m *Memory) lookup(pn uint32) *page {
	if c := &m.cache[pn%uint32(len(m.cache))]; c.pn == pn {
		return c.p
	}
	return m.miss(pn)
}

// miss is lookup past the cache: it finds page pn in the index and
// caches it.
func (m *Memory) miss(pn uint32) *page {
	c := &m.cache[pn%uint32(len(m.cache))]
	*c = pageRef{pn, &zeroPage}
	if i, ok := m.index(pn); ok {
		c.p = m.pages[i].p
	}
	return c.p
}

// index returns where page pn is, or would be, in m.pages, and whether
// it is allocated.
func (m *Memory) index(pn uint32) (int, bool) {
	return slices.BinarySearchFunc(m.pages, pn, func(r pageRef, pn uint32) int { return cmp.Compare(r.pn, pn) })
}

// writable returns page pn, allocating it on its first write together
// with the pages after it up to last that are not allocated either.
func (m *Memory) writable(pn, last uint32) *page {
	if p := m.lookup(pn); p != &zeroPage {
		return p
	}
	m.alloc(pn, last)
	return m.lookup(pn)
}

// alloc allocates the pages first through last that are not allocated,
// all from one block: a write that spans several new pages (the loader's
// image, a restored run) costs one allocation.
func (m *Memory) alloc(first, last uint32) {
	n := 0
	for pn := first; pn <= last; pn++ {
		if m.lookup(pn) == &zeroPage {
			n++
		}
	}
	block := make([]page, n)
	m.pages = slices.Grow(m.pages, n)
	for pn := first; pn <= last && len(block) > 0; pn++ {
		if m.lookup(pn) == &zeroPage {
			i, _ := m.index(pn)
			m.pages = slices.Insert(m.pages, i, pageRef{pn, &block[0]})
			m.cache[pn%uint32(len(m.cache))] = m.pages[i]
			block = block[1:]
		}
	}
}

// read copies the bytes at addr into dst; the caller has bounds-checked
// the span.
func (m *Memory) read(dst []byte, addr uint32) {
	for len(dst) > 0 {
		n := copy(dst, m.lookup(addr >> PageShift)[addr&(PageSize-1):])
		dst, addr = dst[n:], addr+uint32(n)
	}
}

// write copies b to addr, allocating the pages it lands on; the caller
// has bounds-checked the span.
func (m *Memory) write(addr uint32, b []byte) {
	m.dropText(addr, addr+uint32(len(b)))
	for len(b) > 0 {
		n := copy(m.writable(addr>>PageShift, (addr+uint32(len(b))-1)>>PageShift)[addr&(PageSize-1):], b)
		b, addr = b[n:], addr+uint32(n)
	}
}

// view returns the span [addr, addr+n) under the view contract: a
// capacity-clipped slice of its page, or a copy if it crosses pages.
func (m *Memory) view(addr, n uint32) []byte {
	if off := addr & (PageSize - 1); off+n <= PageSize {
		return m.lookup(addr >> PageShift)[off : off+n : off+n]
	}
	b := make([]byte, n)
	m.read(b, addr)
	return b
}

// Zero sets [addr, addr+n) to zero: the allocated pages it covers whole
// are freed, and the bytes it covers of any other allocated page are
// cleared. It checks nothing and bumps no store generation; the caller
// decides whether the application sees the change.
func (m *Memory) Zero(addr, n uint32) {
	m.dropText(addr, addr+n)
	for a, end := uint64(addr), uint64(addr)+uint64(n); a < end; {
		off := uint32(a & (PageSize - 1))
		c := min(end-a, uint64(PageSize-off))
		if i, ok := m.index(uint32(a >> PageShift)); ok && c == PageSize {
			m.pages = slices.Delete(m.pages, i, i+1)
		} else if ok {
			clear(m.pages[i].p[off : off+uint32(c)])
		}
		a += c
	}
	m.cache = noCache
}

// Footprint returns the heap bytes the memory holds: its allocated pages,
// and its bookkeeping — the Memory itself, its page index and its
// protection map.
func (m *Memory) Footprint() (pages, bookkeeping int) {
	return len(m.pages) * PageSize, int(unsafe.Sizeof(*m)) + cap(m.pages)*int(unsafe.Sizeof(pageRef{})) +
		cap(m.segs)*int(unsafe.Sizeof(Segment{})) + cap(m.gens)*8
}

// NonzeroRuns calls fn, in address order, with the bytes of every
// allocated page that holds a nonzero byte, clipped to [start, end).
// Unallocated pages read as zero and are skipped, and nothing is
// allocated. Each b is a view of one page under the Memory contract, so
// the pages of a run of consecutive nonzero pages come as consecutive
// calls.
func (m *Memory) NonzeroRuns(start, end uint32, fn func(addr uint32, b []byte)) {
	start, end = max(start, m.base), min(end, m.Limit())
	if start >= end {
		return
	}
	i, _ := m.index(start >> PageShift)
	for ; i < len(m.pages) && m.pages[i].pn <= (end-1)>>PageShift; i++ {
		first := uint64(m.pages[i].pn) << PageShift
		lo, hi := max(uint64(start), first), min(uint64(end), first+PageSize)
		if b := m.pages[i].p[lo-first : hi-first]; !bytes.Equal(b, zeroPage[:len(b)]) {
			fn(uint32(lo), b)
		}
	}
}

// Map adds (or replaces, by name) a protection segment. Replacing a
// segment keeps its store-generation counter: remapping (e.g. brk growing
// the heap) does not make previously verified bytes look unchanged.
func (m *Memory) Map(seg Segment) {
	m.dropText(seg.Start, seg.End)
	for i := range m.segs {
		if m.segs[i].Name == seg.Name {
			m.dropText(m.segs[i].Start, m.segs[i].End)
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
	m.text = nil
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

// writableSpan reports whether [addr, addr+n) is covered by writable
// segments, walking from each segment to the one that starts at its end.
func (m *Memory) writableSpan(addr, n uint32) bool {
	for end := addr + n; addr < end; {
		seg := m.FindSegment(addr)
		if seg == nil || seg.Perms&PermWrite == 0 {
			return false
		}
		addr = seg.End
	}
	return true
}

func (m *Memory) inBounds(addr, n uint32) bool {
	return addr >= m.base && addr+n >= addr && addr+n <= m.Limit()
}

// load32 reads without permission checks (kernel privilege).
func (m *Memory) load32(addr uint32) (uint32, bool) {
	if !m.inBounds(addr, 4) {
		return 0, false
	}
	if off := addr & (PageSize - 1); off <= PageSize-4 {
		return binary.LittleEndian.Uint32(m.lookup(addr >> PageShift)[off:]), true
	}
	var b [4]byte
	m.read(b[:], addr)
	return binary.LittleEndian.Uint32(b[:]), true
}

func (m *Memory) store32(addr, v uint32) bool {
	if !m.inBounds(addr, 4) {
		return false
	}
	if off := addr & (PageSize - 1); off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.writable(addr>>PageShift, addr>>PageShift)[off:], v)
		return true
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.write(addr, b[:])
	return true
}

// KernelRead returns a view of n bytes at addr with kernel privilege
// (bounds check only), under the view contract in the Memory doc.
func (m *Memory) KernelRead(addr, n uint32) ([]byte, error) {
	if !m.inBounds(addr, n) {
		return nil, &Fault{Addr: addr, Msg: fmt.Sprintf("kernel read of %d bytes out of bounds", n)}
	}
	if err := m.pageCheck(addr, n, 0); err != nil {
		return nil, err
	}
	return m.view(addr, n), nil
}

// KernelPieces appends to dst the span of n bytes at addr, with kernel
// privilege, as one view per page it touches: their concatenation is the
// span, and each follows the view contract. Callers that copy the span
// on (into a file, a socket, a console) use it to copy once.
func (m *Memory) KernelPieces(dst [][]byte, addr, n uint32) ([][]byte, error) {
	if !m.inBounds(addr, n) {
		return dst, &Fault{Addr: addr, Msg: fmt.Sprintf("kernel read of %d bytes out of bounds", n)}
	}
	if err := m.pageCheck(addr, n, 0); err != nil {
		return dst, err
	}
	for n > 0 {
		off := addr & (PageSize - 1)
		c := min(n, PageSize-off)
		dst = append(dst, m.lookup(addr >> PageShift)[off:off+c:off+c])
		addr, n = addr+c, n-c
	}
	return dst, nil
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
	m.write(addr, b)
	return nil
}

// UserWrite copies b into memory at addr on behalf of the application
// (system call results delivered into user buffers). Like copy_to_user,
// it faults unless every byte lies in a writable segment; the span may
// cross adjacent writable segments. It bumps the store-generation
// counters, so data the application could have influenced never looks
// immutable.
func (m *Memory) UserWrite(addr uint32, b []byte) error {
	if m.inBounds(addr, uint32(len(b))) && !m.writableSpan(addr, uint32(len(b))) {
		return &Fault{Addr: addr, Msg: fmt.Sprintf("user write of %d bytes to a non-writable segment", len(b))}
	}
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

// KernelStore32 writes a 32-bit word with kernel privilege: a four-byte
// KernelWrite, subject like it to an installed WriteFaulter.
func (m *Memory) KernelStore32(addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return m.KernelWrite(addr, b[:])
}

// CString reads a NUL-terminated string at addr with kernel privilege,
// failing if no NUL appears within max bytes.
func (m *Memory) CString(addr, max uint32) (string, error) {
	if !m.inBounds(addr, 1) {
		return "", &Fault{Addr: addr, Msg: "string read out of bounds"}
	}
	limit := min(m.Limit()-addr, max)
	// Scan page by page: in paged mode each page is faulted in lazily, so
	// the string's length, not max, decides how many pages the lookup
	// touches.
	for i := uint32(0); i < limit; {
		n := min(PageSize-(addr+i)&(PageSize-1), limit-i)
		b, err := m.KernelRead(addr+i, n) // one page: a view, not a copy
		if err != nil {
			return "", err
		}
		if j := bytes.IndexByte(b, 0); j >= 0 {
			return string(m.view(addr, i+uint32(j))), nil
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
}

// New creates a CPU over mem that delivers traps to handler.
func New(mem *Memory, handler TrapHandler) *CPU {
	return &CPU{Mem: mem, handler: handler}
}

func (c *CPU) fetch() (isa.Instr, error) {
	pc := c.PC
	if t := c.Mem.text; t != nil && pc >= t.base && pc < t.end() && (pc-t.base)%isa.InstrSize == 0 {
		if i := (pc - t.base) / isa.InstrSize; t.ok[i] {
			return t.ins[i], nil
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
		if !c.Mem.inBounds(addr, 1) {
			return 0, &Fault{PC: c.PC, Addr: addr, Msg: "read out of bounds"}
		}
		return uint32(c.Mem.lookup(addr >> PageShift)[addr&(PageSize-1)]), nil
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
	c.Mem.dropText(addr, addr+size)
	if size == 1 {
		if !c.Mem.inBounds(addr, 1) {
			return &Fault{PC: c.PC, Addr: addr, Msg: "write out of bounds"}
		}
		c.Mem.writable(addr>>PageShift, addr>>PageShift)[addr&(PageSize-1)] = byte(v)
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
