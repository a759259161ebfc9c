package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// Layout of the differential test's address space: image, data and heap
// at the bottom; a paged arena and the stack at the top; an unmapped gap
// between them that kernel accesses may still touch.
const (
	dBase       = 0x1000
	dSize       = 1 << 20
	dTop        = dBase + dSize
	dStack      = 0x10000
	dArenaPages = 16
	dArenaStart = dTop - dStack - dArenaPages*PageSize
)

// peek reads the byte at offset off without allocating a page.
func peek(m *Memory, off uint32) byte {
	a := m.base + off
	return m.lookup(a >> PageShift)[a&(PageSize-1)]
}

// world is one address space under test: a memory, its CPU, and the
// page table and pager over its arena.
type world struct {
	mem *Memory
	cpu *CPU
	pt  *PageTable
	pg  *testPager
}

func newWorld() *world {
	m := NewMemory(dBase, dSize)
	for _, s := range []Segment{
		{Name: "text", Start: dBase, End: dBase + 0x1000, Perms: PermRead | PermExec},
		{Name: "data", Start: dBase + 0x1000, End: dBase + 0x5000, Perms: PermRead | PermWrite},
		{Name: "heap", Start: dBase + 0x5000, End: dBase + 0x20000, Perms: PermRead | PermWrite},
		{Name: "mmap", Start: dArenaStart, End: dTop - dStack, Perms: PermRead | PermWrite | PermExec},
		{Name: "stack", Start: dTop - dStack, End: dTop, Perms: PermRead | PermWrite | PermExec},
	} {
		m.Map(s)
	}
	m.WatchRange(dBase+0x1100, dBase+0x1114)
	pt := NewPageTable(dArenaStart, dArenaPages)
	pg := &testPager{mem: m, pt: pt}
	m.SetPaging(pt, pg)
	return &world{mem: m, cpu: New(m, nil), pt: pt, pg: pg}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSparseMatchesFlat runs seeded random access sequences against a
// sparse memory, a memory with every page allocated up front, and a
// plain byte slice, and requires identical bytes, results, faults, store
// generations and pager activity, and that no read allocates a page. Odd
// seeds write one span across the whole space mid-run, after which reads
// and NonzeroRuns over all of it must still allocate nothing.
func TestSparseMatchesFlat(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runDifferential(t, seed, 3000) })
	}
}

func runDifferential(t *testing.T, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	sp, ref := newWorld(), newWorld()
	if err := ref.mem.RawWrite(dBase, make([]byte, dSize)); err != nil {
		t.Fatal(err)
	}
	if len(ref.mem.pages) != dSize/PageSize {
		t.Fatalf("reference holds %d pages, want all %d", len(ref.mem.pages), dSize/PageSize)
	}
	model := make([]byte, dSize)

	pick := func() uint32 {
		switch r.Intn(8) {
		case 0:
			return dBase + uint32(r.Intn(0x20000))
		case 1:
			return dTop - 1 - uint32(r.Intn(dStack))
		case 2:
			return dArenaStart + uint32(r.Intn(dArenaPages*PageSize))
		case 3:
			return dBase + uint32(r.Intn(dSize))
		case 4, 5: // the first or last byte of an allocated page
			edge := uint32(dBase)
			if n := len(sp.mem.pages); n > 0 {
				edge = (sp.mem.pages[r.Intn(n)].pn + uint32(r.Intn(2))) << PageShift
			}
			return edge - 8 + uint32(r.Intn(16))
		case 6:
			return dTop - uint32(r.Intn(8))
		default:
			return dBase - 4 + uint32(r.Intn(8))
		}
	}
	length := func() int {
		if r.Intn(10) == 0 {
			return 1 + r.Intn(3*PageSize)
		}
		return 1 + r.Intn(64)
	}
	payload := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		// Some zero bytes so CString finds terminators.
		for i := range b {
			if r.Intn(24) == 0 {
				b[i] = 0
			}
		}
		return b
	}
	// put mirrors a successful write into the model, after the page
	// fills the access triggered.
	put := func(addr uint32, b []byte) {
		copy(model[addr-dBase:], b)
	}
	check := func(step int, what string, a, b any) {
		t.Helper()
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d step %d %s: sparse %v, flat %v", seed, step, what, a, b)
		}
	}
	compareRange := func(step int, addr, n uint32) {
		t.Helper()
		for a := uint64(addr); a < uint64(addr)+uint64(n); a++ {
			if a < dBase || a >= dTop {
				continue
			}
			off := uint32(a - dBase)
			s, f, w := peek(sp.mem, off), peek(ref.mem, off), model[off]
			if s != w || f != w {
				t.Fatalf("seed %d step %d: byte %#x sparse %#x flat %#x model %#x", seed, step, a, s, f, w)
			}
		}
	}

	// applyFills mirrors the pages the pagers zero-filled into the model;
	// the access that faulted them in lands on top of the fill.
	var filled []uint32
	applyFills := func(step int) {
		t.Helper()
		check(step, "page fills", sp.pg.filled, ref.pg.filled)
		for _, fill := range sp.pg.filled {
			put(fill, make([]byte, PageSize))
		}
		filled = append(filled, sp.pg.filled...)
		sp.pg.filled, ref.pg.filled = nil, nil
	}

	straddleAt := -1
	if seed%2 == 1 {
		straddleAt = steps * 3 / 4
	}
	for step := 0; step < steps; step++ {
		addr := pick()
		n := length()
		var wrote []byte // bytes landed at addr by a successful write
		var se, fe error
		pages := len(sp.mem.pages)
		op := r.Intn(13)
		if step == straddleAt {
			// A raw write across the gap (and the arena, which the paged
			// accessors would refuse) flattens the sparse memory.
			addr, n, op = dBase+0x100, dSize-0x200, 2
		}
		switch op {
		case 0:
			b := payload(n)
			se, fe = sp.mem.KernelWrite(addr, b), ref.mem.KernelWrite(addr, b)
			wrote = b
		case 1:
			b := payload(n)
			se, fe = sp.mem.UserWrite(addr, b), ref.mem.UserWrite(addr, b)
			wrote = b
		case 2:
			b := payload(n)
			se, fe = sp.mem.RawWrite(addr, b), ref.mem.RawWrite(addr, b)
			wrote = b
		case 3:
			v := r.Uint32()
			se, fe = sp.mem.KernelStore32(addr, v), ref.mem.KernelStore32(addr, v)
			wrote = binary.LittleEndian.AppendUint32(nil, v)
		case 4, 5:
			size := uint32(4)
			if op == 5 {
				size = 1
			}
			v := r.Uint32()
			se, fe = sp.cpu.store(addr, v, size), ref.cpu.store(addr, v, size)
			wrote = binary.LittleEndian.AppendUint32(nil, v)[:size]
		case 6, 7:
			size := uint32(4)
			if op == 7 {
				size = 1
			}
			var sv, fv uint32
			sv, se = sp.cpu.load(addr, size)
			fv, fe = ref.cpu.load(addr, size)
			check(step, "load value", sv, fv)
			if se == nil {
				applyFills(step)
				var w [4]byte
				copy(w[:], model[addr-dBase:])
				want := binary.LittleEndian.Uint32(w[:])
				if size == 1 {
					want &= 0xff
				}
				check(step, "load vs model", sv, want)
			}
		case 8:
			max := uint32(1 + r.Intn(2*PageSize))
			var ss, fs string
			ss, se = sp.mem.CString(addr, max)
			fs, fe = ref.mem.CString(addr, max)
			check(step, "cstring", ss, fs)
		case 9:
			var sb, fb []byte
			sb, se = sp.mem.KernelRead(addr, uint32(n))
			fb, fe = ref.mem.KernelRead(addr, uint32(n))
			if !bytes.Equal(sb, fb) {
				t.Fatalf("seed %d step %d: KernelRead(%#x, %d) differs", seed, step, addr, n)
			}
		case 10: // map a run of arena pages
			first, cnt := r.Intn(dArenaPages), 1+r.Intn(4)
			prot := []PageFlags{PageRead, PageRead | PageWrite, PageRead | PageWrite | PageExec}[r.Intn(3)]
			for i := first; i < first+cnt && i < dArenaPages; i++ {
				sp.pt.SetFlags(i, PageMapped|prot)
				ref.pt.SetFlags(i, PageMapped|prot)
			}
		case 11: // evict an arena page: drop it and scrub its bytes
			i := r.Intn(dArenaPages)
			f := sp.pt.Flags(i)
			if f&PagePresent != 0 {
				sp.pt.SetFlags(i, f&^PagePresent)
				ref.pt.SetFlags(i, f&^PagePresent)
				zero := make([]byte, PageSize)
				se, fe = sp.mem.RawWrite(sp.pt.PageAddr(i), zero), ref.mem.RawWrite(ref.pt.PageAddr(i), zero)
				addr, wrote = sp.pt.PageAddr(i), zero
			}
		default:
			var sv, fv uint32
			sv, se = sp.mem.KernelLoad32(addr)
			fv, fe = ref.mem.KernelLoad32(addr)
			check(step, "kernel load", sv, fv)
		}
		check(step, fmt.Sprintf("op %d error at %#x+%d", op, addr, n), errText(se), errText(fe))
		if isRead := op >= 6 && op <= 9 || op == 12; isRead && len(sp.mem.pages) > pages {
			t.Fatalf("seed %d step %d: read op %d allocated %d pages", seed, step, op, len(sp.mem.pages)-pages)
		}
		applyFills(step)
		if se == nil && wrote != nil {
			put(addr, wrote)
			compareRange(step, addr, uint32(len(wrote)))
		}
		for _, fill := range filled {
			compareRange(step, fill, PageSize)
		}
		filled = filled[:0]
		_, sg := sp.mem.SnapshotSegments()
		_, fg := ref.mem.SnapshotSegments()
		check(step, "store generations", sg, fg)
		check(step, "watch generation", sp.mem.WatchGeneration(), ref.mem.WatchGeneration())
		if step%500 == 0 || step == steps-1 || step == straddleAt {
			compareRange(step, dBase, dSize)
			readAll(t, sp.mem)
		}
	}
}

// readAll reads the whole space through RawRead and NonzeroRuns and fails
// if either allocates a page.
func readAll(t *testing.T, m *Memory) {
	t.Helper()
	pages := len(m.pages)
	if _, err := m.RawRead(m.Base(), m.Limit()-m.Base()); err != nil {
		t.Fatal(err)
	}
	m.NonzeroRuns(m.Base(), m.Limit(), func(uint32, []byte) {})
	if len(m.pages) != pages {
		t.Fatalf("reading the whole space allocated %d pages", len(m.pages)-pages)
	}
}

// TestSparseGrowthKeepsViews checks the view contract as the memory
// grows: a view of one page aliases it, a view across pages is a copy,
// a view of a page never written shows zeros, and every view keeps the
// bytes it showed while other pages are allocated.
func TestSparseGrowthKeepsViews(t *testing.T) {
	m := NewMemory(dBase, dSize)
	low := []byte("low page bytes")
	high := []byte("high page bytes")
	hiAddr := uint32(dTop - 64)
	if err := m.KernelWrite(dBase+8, low); err != nil {
		t.Fatal(err)
	}
	if err := m.KernelWrite(hiAddr, high); err != nil {
		t.Fatal(err)
	}
	lowView, _ := m.KernelRead(dBase+8, uint32(len(low)))
	highView, _ := m.KernelRead(hiAddr, uint32(len(high)))
	gapView, _ := m.KernelRead(dBase+0x8000, 16)
	if len(m.pages) != 2 {
		t.Fatalf("first touch allocated %d pages, want one page each end", len(m.pages))
	}

	// Allocate pages at each end and in the gap.
	for _, a := range []uint32{dBase + 5*PageSize, dTop - 5*PageSize, dBase + 0x8000} {
		if err := m.KernelWrite(a, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.pages) != 5 {
		t.Fatalf("memory holds %d pages, want 5", len(m.pages))
	}
	if !bytes.Equal(lowView, low) || !bytes.Equal(highView, high) || !bytes.Equal(gapView, make([]byte, 16)) {
		t.Fatalf("views changed across growth: %q %q %v", lowView, highView, gapView)
	}

	// A one-page view aliases its page; a view across pages is a copy.
	if err := m.KernelWrite(dBase+8, []byte{'L'}); err != nil {
		t.Fatal(err)
	}
	if lowView[0] != 'L' {
		t.Fatalf("one-page view did not alias its page")
	}
	all, err := m.KernelRead(dBase, dSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.pages) != 5 {
		t.Fatalf("a view across the space allocated pages: %d", len(m.pages))
	}
	if all[8] != 'L' || !bytes.Equal(all[hiAddr-dBase:][:len(high)], high) ||
		all[5*PageSize] != 1 || all[dSize-5*PageSize] != 1 || all[0x8000] != 1 {
		t.Fatalf("view across pages lost bytes")
	}
	if err := m.KernelWrite(dBase+9, []byte{'X'}); err != nil {
		t.Fatal(err)
	}
	if all[9] == 'X' {
		t.Fatalf("view across pages aliases memory")
	}
}

// TestSparseTouchesOnlyWhatIsUsed checks the point of the layout: an
// image at the bottom and a stack at the top of a 4 MiB space allocate a
// few pages, not the space, and Zero frees whole pages.
func TestSparseTouchesOnlyWhatIsUsed(t *testing.T) {
	m := NewMemory(dBase, 4<<20)
	if err := m.KernelWrite(dBase, bytes.Repeat([]byte{7}, 3*PageSize+100)); err != nil {
		t.Fatal(err)
	}
	if err := m.KernelStore32(m.Limit()-4, 7); err != nil {
		t.Fatal(err)
	}
	if got := len(m.pages); got != 5 {
		t.Fatalf("allocated %d pages, want 5", got)
	}
	if v, err := m.KernelLoad32(dBase + 2<<20); err != nil || v != 0 {
		t.Fatalf("gap load = %d, %v; want 0", v, err)
	}
	// Zero frees the pages it covers whole and clears the partial ones.
	m.Zero(dBase+10, 2*PageSize)
	if got := len(m.pages); got != 4 {
		t.Fatalf("after Zero %d pages, want 4", got)
	}
	for _, a := range []uint32{dBase + 9, dBase + 10, dBase + PageSize, dBase + 2*PageSize + 9, dBase + 2*PageSize + 10} {
		want := uint32(7)
		if a >= dBase+10 && a < dBase+10+2*PageSize {
			want = 0
		}
		if b, _ := m.KernelRead(a, 1); uint32(b[0]) != want {
			t.Errorf("byte %#x = %d after Zero, want %d", a, b[0], want)
		}
	}
}

// TestNonzeroRuns: the walker yields the nonzero allocated pages, clipped
// to the asked range, in address order, skips zero and unallocated
// pages, allocates nothing, and gives the same runs on a memory with
// every page allocated.
func TestNonzeroRuns(t *testing.T) {
	type run struct{ addr, n uint32 }
	fill := func(m *Memory) {
		for _, w := range []struct{ addr, v uint32 }{
			{dBase + 0x10, 1},             // page 0
			{dBase + 0x1ffe, 0x0202_0202}, // pages 1 and 2, one run with page 0
			{dBase + 0x4000, 4},           // page 4; page 3 is allocated and zero
			{dTop - 4, 5},                 // the top page
		} {
			if err := m.KernelStore32(w.addr, w.v); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.KernelStore32(dBase+0x3000, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := []run{
		{dBase + 8, 0x3000 - 8},
		{dBase + 0x4000, 0x1000},
		{dTop - PageSize, PageSize - 2},
	}
	sparse, full := NewMemory(dBase, dSize), NewMemory(dBase, dSize)
	if err := full.RawWrite(dBase, make([]byte, dSize)); err != nil {
		t.Fatal(err)
	}
	fill(sparse)
	fill(full)
	for name, m := range map[string]*Memory{"sparse": sparse, "full": full} {
		pages := len(m.pages)
		var got []run
		m.NonzeroRuns(dBase+8, dTop-2, func(addr uint32, b []byte) {
			if bytes.Count(b, []byte{0}) == len(b) {
				t.Errorf("%s: all-zero page at %#x", name, addr)
			}
			if len(b) > PageSize || addr>>PageShift != (addr+uint32(len(b))-1)>>PageShift {
				t.Errorf("%s: run at %#x of %d bytes crosses a page", name, addr, len(b))
			}
			if n := len(got); n > 0 && got[n-1].addr+got[n-1].n == addr {
				got[n-1].n += uint32(len(b))
				return
			}
			got = append(got, run{addr, uint32(len(b))})
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: runs %x, want %x", name, got, want)
		}
		if len(m.pages) != pages {
			t.Errorf("%s: walking allocated %d pages", name, len(m.pages)-pages)
		}
	}
}
