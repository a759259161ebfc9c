package vm

import (
	"bytes"
	"testing"
)

// testPager makes every faulting page present with zero fill (freeing
// whatever the page held, as the kernel's pager leaves a zero-filled page
// unallocated) and counts invocations; fail makes PageFault return an
// error instead.
type testPager struct {
	mem    *Memory
	pt     *PageTable
	faults int
	spans  [][3]uint32 // addr, n, perm
	filled []uint32    // first address of every page zero-filled
	fail   error
}

func (p *testPager) PageFault(addr, n uint32, access uint8) error {
	p.faults++
	p.spans = append(p.spans, [3]uint32{addr, n, uint32(access)})
	if p.fail != nil {
		return p.fail
	}
	first, _ := p.pt.Index(addr)
	last, _ := p.pt.Index(addr + n - 1)
	for i := first; i <= last; i++ {
		f := p.pt.Flags(i)
		if f&PageMapped == 0 || f&PagePresent != 0 {
			continue
		}
		p.mem.Zero(p.pt.PageAddr(i), PageSize)
		p.filled = append(p.filled, p.pt.PageAddr(i))
		p.pt.SetFlags(i, f|PagePresent)
	}
	return nil
}

func newPagedMemory(t *testing.T, npages int) (*Memory, *PageTable, *testPager) {
	t.Helper()
	base := uint32(0x10000)
	m := NewMemory(base, uint32(npages+2)*PageSize)
	ptBase := base + PageSize
	m.Map(Segment{Name: "mmap", Start: ptBase, End: ptBase + uint32(npages)*PageSize, Perms: PermRead | PermWrite | PermExec})
	pt := NewPageTable(ptBase, npages)
	pg := &testPager{mem: m, pt: pt}
	m.SetPaging(pt, pg)
	return m, pt, pg
}

func TestPageCheckUnmappedFaults(t *testing.T) {
	m, pt, _ := newPagedMemory(t, 4)
	if _, err := m.KernelRead(pt.Base(), 8); err == nil {
		t.Fatalf("read of unmapped page succeeded")
	}
	if err := m.pageCheck(pt.Base(), 4, uint8(PermRead)); err == nil {
		t.Fatalf("pageCheck of unmapped page succeeded")
	}
}

func TestPageCheckFaultsInAndMarks(t *testing.T) {
	m, pt, pg := newPagedMemory(t, 4)
	pt.SetFlags(0, PageMapped|PageRead|PageWrite)
	pt.SetFlags(1, PageMapped|PageRead|PageWrite)

	// A span crossing both pages triggers exactly one pager call.
	if err := m.pageCheck(pt.Base()+PageSize-4, 8, uint8(PermWrite)); err != nil {
		t.Fatalf("pageCheck: %v", err)
	}
	if pg.faults != 1 {
		t.Fatalf("faults = %d, want 1", pg.faults)
	}
	for i := 0; i < 2; i++ {
		f := pt.Flags(i)
		if f&PagePresent == 0 || f&PageAccessed == 0 || f&PageDirty == 0 {
			t.Fatalf("page %d flags %08b missing present/accessed/dirty", i, f)
		}
	}
	// Present pages do not fault again.
	if err := m.pageCheck(pt.Base(), 4, uint8(PermRead)); err != nil {
		t.Fatalf("second access: %v", err)
	}
	if pg.faults != 1 {
		t.Fatalf("faults after resident access = %d, want 1", pg.faults)
	}
}

func TestPageCheckProtection(t *testing.T) {
	m, pt, _ := newPagedMemory(t, 4)
	pt.SetFlags(2, PageMapped|PageRead)
	if err := m.pageCheck(pt.PageAddr(2), 4, uint8(PermRead)); err != nil {
		t.Fatalf("read of read-only page: %v", err)
	}
	if err := m.pageCheck(pt.PageAddr(2), 4, uint8(PermWrite)); err == nil {
		t.Fatalf("write to read-only page succeeded")
	}
	if err := m.pageCheck(pt.PageAddr(2), 4, uint8(PermRead|PermExec)); err == nil {
		t.Fatalf("exec of no-exec page succeeded")
	}
	// Kernel access (perm 0) needs only the mapping.
	if err := m.pageCheck(pt.PageAddr(2), 4, 0); err != nil {
		t.Fatalf("kernel access to read-only page: %v", err)
	}
}

func TestPageCheckArenaBoundary(t *testing.T) {
	m, pt, _ := newPagedMemory(t, 4)
	pt.SetFlags(0, PageMapped|PageRead|PagePresent)
	// A span straddling the arena start must fault even though the flat
	// segment map would allow it.
	if err := m.pageCheck(pt.Base()-4, 8, 0); err == nil {
		t.Fatalf("access crossing the arena start succeeded")
	}
	if err := m.pageCheck(pt.End()-4, 8, 0); err == nil {
		t.Fatalf("access crossing the arena end succeeded")
	}
	// Accesses fully outside the arena are free.
	if err := m.pageCheck(pt.Base()-8, 8, 0); err != nil {
		t.Fatalf("access below the arena: %v", err)
	}
	if err := m.pageCheck(pt.End(), 4, 0); err != nil {
		t.Fatalf("access above the arena: %v", err)
	}
}

func TestPagerFailurePropagates(t *testing.T) {
	m, pt, pg := newPagedMemory(t, 4)
	pt.SetFlags(0, PageMapped|PageRead)
	pg.fail = &Fault{Msg: "swap verification failed"}
	if err := m.pageCheck(pt.Base(), 4, uint8(PermRead)); err == nil {
		t.Fatalf("pager failure did not abort the access")
	}
}

func TestRawAccessBypassesPaging(t *testing.T) {
	m, pt, pg := newPagedMemory(t, 4)
	pt.SetFlags(0, PageMapped|PageRead|PageWrite)
	if err := m.RawWrite(pt.Base(), []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("RawWrite: %v", err)
	}
	b, err := m.RawRead(pt.Base(), 4)
	if err != nil {
		t.Fatalf("RawRead: %v", err)
	}
	if !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Fatalf("RawRead = %v", b)
	}
	if pg.faults != 0 {
		t.Fatalf("raw access invoked the pager %d times", pg.faults)
	}
}

func TestPageTableEncodeDecodeRoundTrip(t *testing.T) {
	pt := NewPageTable(0x40000, 8)
	pt.SetFlags(0, PageMapped|PageRead|PageWrite|PagePresent|PageDirty)
	pt.SetFlags(7, PageMapped|PageRead)
	gens := []uint64{3, 0, 0, 0, 0, 0, 0, 9}
	blob := EncodePageTable(pt, gens)
	got, gotGens, err := DecodePageTable(blob)
	if err != nil {
		t.Fatalf("DecodePageTable: %v", err)
	}
	if got.Base() != pt.Base() || got.NumPages() != pt.NumPages() {
		t.Fatalf("decoded geometry %#x/%d, want %#x/%d", got.Base(), got.NumPages(), pt.Base(), pt.NumPages())
	}
	for i := 0; i < pt.NumPages(); i++ {
		if got.Flags(i) != pt.Flags(i) {
			t.Fatalf("page %d flags %08b, want %08b", i, got.Flags(i), pt.Flags(i))
		}
	}
	for i, g := range gotGens {
		if g != gens[i] {
			t.Fatalf("gen %d = %d, want %d", i, g, gens[i])
		}
	}
}

func TestPageTableDecodeRejectsCorruption(t *testing.T) {
	pt := NewPageTable(0x40000, 4)
	blob := EncodePageTable(pt, make([]uint64, 4))
	cases := map[string][]byte{
		"empty":      nil,
		"short":      blob[:8],
		"bad magic":  append([]byte("XXXX"), blob[4:]...),
		"truncated":  blob[:len(blob)-3],
		"trailing":   append(append([]byte(nil), blob...), 0),
		"huge count": append(append([]byte(nil), blob[:12]...), 0xff, 0xff, 0xff, 0x7f),
		"odd base":   append(append([]byte(nil), blob[:8]...), append([]byte{1, 0, 4, 0}, blob[12:]...)...),
	}
	for name, b := range cases {
		if _, _, err := DecodePageTable(b); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func FuzzPageTableDecode(f *testing.F) {
	pt := NewPageTable(0x40000, 8)
	pt.SetFlags(2, PageMapped|PageRead|PagePresent)
	f.Add(EncodePageTable(pt, make([]uint64, 8)))
	f.Add([]byte("ASPT"))
	f.Fuzz(func(t *testing.T, b []byte) {
		pt, gens, err := DecodePageTable(b)
		if err != nil {
			return
		}
		// Round-trip invariant on anything that decodes.
		if !bytes.Equal(EncodePageTable(pt, gens), b) {
			t.Fatalf("decode/encode round trip mismatch")
		}
	})
}
