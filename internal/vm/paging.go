// paging.go adds an optional demand-paged region to the segmented
// address space: a page table over a fixed arena with per-page
// mapped/present/protection bits, and a PageFaulter hook through which
// the kernel services page faults (fault-in, eviction, and — the point
// of the exercise — verification of pages coming back from the swap
// device). Addresses outside the arena skip the page table: a memory
// with no page table pays two compares per access.
package vm

import "encoding/binary"

// Page geometry. 4 KiB pages: one page MAC is 256 AES blocks.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// PageFlags is the per-page protection and state word. The low three
// bits alias the segment permission bits (PermRead/PermWrite/PermExec),
// so a protection check is a single mask compare.
type PageFlags uint8

// Per-page flag bits.
const (
	PageRead  = PageFlags(PermRead)
	PageWrite = PageFlags(PermWrite)
	PageExec  = PageFlags(PermExec)
	// PageMapped: the page belongs to an mmap region.
	PageMapped PageFlags = 1 << 3
	// PagePresent: the page's bytes are resident in memory (a mapped,
	// non-present page lives on the swap device or is zero-fill-on-demand).
	// Residency is not allocation: a present page never written is not
	// allocated, and reads as the shared zero page.
	PagePresent PageFlags = 1 << 4
	// PageAccessed is set on every access; the clock eviction policy
	// clears it to find second-chance victims.
	PageAccessed PageFlags = 1 << 5
	// PageDirty is set on every write access.
	PageDirty PageFlags = 1 << 6
)

// PageProtMask selects the protection bits of a flags word.
const PageProtMask = PageRead | PageWrite | PageExec

// PageFaulter services page faults for one address space. PageFault is
// invoked when an access to [addr, addr+n) touches mapped pages that are
// not present; it must make every mapped page of the span present (or
// return an error, which aborts the access). access carries the
// attempted permission bits (PermRead/PermWrite/PermExec; 0 for a
// privileged kernel access). The faulter reads and writes page bytes
// through RawRead/RawWrite, which bypass the paging check.
type PageFaulter interface {
	PageFault(addr, n uint32, access uint8) error
}

// PageTable maps a fixed arena [base, base+len(flags)*PageSize) to
// per-page flags. It covers only the mmap arena; the image, heap, and
// stack segments stay resident and are never consulted here.
type PageTable struct {
	base  uint32
	flags []PageFlags
}

// NewPageTable creates a table of npages unmapped pages starting at the
// page-aligned base.
func NewPageTable(base uint32, npages int) *PageTable {
	return &PageTable{base: base &^ (PageSize - 1), flags: make([]PageFlags, npages)}
}

// Base returns the arena's first address.
func (t *PageTable) Base() uint32 { return t.base }

// End returns the address one past the arena.
func (t *PageTable) End() uint32 { return t.base + uint32(len(t.flags))<<PageShift }

// NumPages returns the arena capacity in pages.
func (t *PageTable) NumPages() int { return len(t.flags) }

// Flags returns page i's flags word.
func (t *PageTable) Flags(i int) PageFlags { return t.flags[i] }

// SetFlags replaces page i's flags word.
func (t *PageTable) SetFlags(i int, f PageFlags) { t.flags[i] = f }

// Index returns the page index covering addr, false outside the arena.
func (t *PageTable) Index(addr uint32) (int, bool) {
	if addr < t.base || addr >= t.End() {
		return 0, false
	}
	return int((addr - t.base) >> PageShift), true
}

// PageAddr returns page i's first address.
func (t *PageTable) PageAddr(i int) uint32 { return t.base + uint32(i)<<PageShift }

// Page-table record encoding: the checkpointable form of the table plus
// the kernel's per-page swap generation counters. The record is embedded
// in the sealed checkpoint state, so the decoder must be safe on
// arbitrary bytes (the seal is checked by the caller, the structure
// here).
const (
	ptMagic   = "ASPT"
	ptVersion = 1
)

// EncodePageTable serializes the table and the parallel per-page swap
// generation counters.
func EncodePageTable(t *PageTable, gens []uint64) []byte {
	n := len(t.flags)
	b := make([]byte, 0, 4+4+4+4+n+8*len(gens))
	b = append(b, ptMagic...)
	b = binary.LittleEndian.AppendUint32(b, ptVersion)
	b = binary.LittleEndian.AppendUint32(b, t.base)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, f := range t.flags {
		b = append(b, byte(f))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(gens)))
	for _, g := range gens {
		b = binary.LittleEndian.AppendUint64(b, g)
	}
	return b
}

// DecodePageTable parses an encoded page-table record. Every length is
// bounds-checked against the remaining bytes before allocation, so
// arbitrary input fails cleanly instead of panicking (fuzzed).
func DecodePageTable(b []byte) (*PageTable, []uint64, error) {
	fail := func(msg string) (*PageTable, []uint64, error) {
		return nil, nil, &Fault{Msg: "page table record: " + msg}
	}
	if len(b) < 16 {
		return fail("truncated header")
	}
	if string(b[:4]) != ptMagic {
		return fail("bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != ptVersion {
		return fail("unknown version")
	}
	base := binary.LittleEndian.Uint32(b[8:])
	if base&(PageSize-1) != 0 {
		return fail("unaligned base")
	}
	n := int(binary.LittleEndian.Uint32(b[12:]))
	rest := b[16:]
	if n < 0 || n > len(rest) {
		return fail("flag count exceeds payload")
	}
	if uint64(base)+uint64(n)<<PageShift > 1<<32 {
		return fail("arena exceeds the address space")
	}
	t := &PageTable{base: base, flags: make([]PageFlags, n)}
	for i := 0; i < n; i++ {
		t.flags[i] = PageFlags(rest[i])
	}
	rest = rest[n:]
	if len(rest) < 4 {
		return fail("truncated generation count")
	}
	ng := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if ng < 0 || ng*8 > len(rest) {
		return fail("generation count exceeds payload")
	}
	if ng != n {
		return fail("generation count does not match page count")
	}
	gens := make([]uint64, ng)
	for i := 0; i < ng; i++ {
		gens[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}
	if len(rest) != ng*8 {
		return fail("trailing bytes")
	}
	return t, gens, nil
}

// SetPaging installs (or, with nil, removes) the page table and its
// fault handler over the memory's mmap arena.
func (m *Memory) SetPaging(t *PageTable, pager PageFaulter) {
	m.pt = t
	m.pager = pager
}

// Paging returns the installed page table (nil without paged mode).
func (m *Memory) Paging() *PageTable { return m.pt }

// pageCheck validates an access to [addr, addr+n) against the page
// table: outside the arena it is free; inside, every page must be
// mapped, satisfy the attempted permissions (perm 0 is a privileged
// kernel access: mapped is enough), and be present — non-present pages
// are faulted in through the PageFaulter. On success the touched pages
// are marked accessed (and dirty on writes).
func (m *Memory) pageCheck(addr, n uint32, perm uint8) error {
	if m.pt == nil || n == 0 {
		return nil
	}
	end := addr + n
	if end < addr {
		return &Fault{Addr: addr, Msg: "paged access wraps the address space"}
	}
	if end <= m.pt.base || addr >= m.pt.End() {
		return nil
	}
	if addr < m.pt.base || end > m.pt.End() {
		return &Fault{Addr: addr, Msg: "access crosses the mmap arena boundary"}
	}
	first := int((addr - m.pt.base) >> PageShift)
	last := int((end - 1 - m.pt.base) >> PageShift)
	need := PageFlags(perm)
	missing := false
	for i := first; i <= last; i++ {
		f := m.pt.flags[i]
		if f&PageMapped == 0 {
			return &Fault{Addr: m.pt.PageAddr(i), Msg: "page fault on unmapped page"}
		}
		if f&need != need {
			return &Fault{Addr: m.pt.PageAddr(i), Msg: "page protection violation"}
		}
		if f&PagePresent == 0 {
			missing = true
		}
	}
	if missing {
		if m.pager == nil {
			return &Fault{Addr: addr, Msg: "page fault with no pager installed"}
		}
		if err := m.pager.PageFault(addr, n, perm); err != nil {
			return err
		}
		for i := first; i <= last; i++ {
			if m.pt.flags[i]&PagePresent == 0 {
				return &Fault{Addr: m.pt.PageAddr(i), Msg: "pager did not deliver the page"}
			}
		}
	}
	mark := PageAccessed
	if perm&PermWrite != 0 {
		mark |= PageDirty
	}
	for i := first; i <= last; i++ {
		m.pt.flags[i] |= mark
	}
	return nil
}

// RawRead returns a view of [addr, addr+n) with no permission or paging
// checks: the accessor the pager itself uses to move page bytes without
// recursing into the fault path. The view follows the Memory contract.
func (m *Memory) RawRead(addr, n uint32) ([]byte, error) {
	if !m.inBounds(addr, n) {
		return nil, &Fault{Addr: addr, Msg: "raw read out of bounds"}
	}
	return m.view(addr, n), nil
}

// RawWrite copies b to addr with no permission or paging checks and no
// write-fault injection; the pager's page delivery path.
func (m *Memory) RawWrite(addr uint32, b []byte) error {
	if !m.inBounds(addr, uint32(len(b))) {
		return &Fault{Addr: addr, Msg: "raw write out of bounds"}
	}
	m.write(addr, b)
	return nil
}
