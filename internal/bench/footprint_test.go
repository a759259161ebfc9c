package bench

import (
	"testing"

	"asc/internal/isa"
	"asc/internal/kernel"
	"asc/internal/vm"
	"asc/internal/workload"
)

// pageSet records the pages a process writes: every kernel write (as a
// vm.WriteFaulter that tears nothing) and, through stepCPU, every CPU
// store.
type pageSet map[uint32]bool

func (s pageSet) add(addr, n uint32) {
	for pn := addr >> vm.PageShift; n > 0 && pn <= (addr+n-1)>>vm.PageShift; pn++ {
		s[pn] = true
	}
}

func (s pageSet) TornWrite(addr uint32, n int) int {
	s.add(addr, uint32(n))
	return n
}

// stores records the span the instruction at the CPU's PC stores to, if
// it is a store.
func (s pageSet) stores(t *testing.T, c *vm.CPU) {
	raw, err := c.Mem.KernelRead(c.PC, isa.InstrSize)
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	switch in.Op {
	case isa.OpSTORE:
		s.add(c.Regs[in.Rd]+in.Imm, 4)
	case isa.OpSTOREB:
		s.add(c.Regs[in.Rd]+in.Imm, 1)
	case isa.OpPUSH, isa.OpCALL, isa.OpCALLR:
		s.add(c.Regs[isa.SP]-4, 4)
	}
}

// TestMemoryFootprint runs every program of the Table 5 suite,
// authenticated, and checks that its memory then holds exactly the pages
// it wrote — the image the loader wrote, the kernel's writes and the
// program's stores — plus at most 1 KiB of bookkeeping.
func TestMemoryFootprint(t *testing.T) {
	key := []byte("0123456789abcdef")
	for _, spec := range workload.PerfSuite() {
		_, auth, err := buildPair(spec.Name, spec.Source(2), key)
		if err != nil {
			t.Fatal(err)
		}
		k, err := newBenchKernel(key, kernel.Enforce)
		if err != nil {
			t.Fatal(err)
		}
		p, err := k.Spawn(auth, spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		touched := pageSet{}
		base, img, err := auth.Image()
		if err != nil {
			t.Fatal(err)
		}
		touched.add(base, uint32(len(img)))
		p.Mem.SetWriteFaulter(touched)
		for !p.CPU.Halted {
			touched.stores(t, p.CPU)
			if err := p.CPU.Step(); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
		}
		if p.Killed {
			t.Fatalf("%s killed: %s", spec.Name, p.KilledBy)
		}
		pages, bookkeeping := p.Mem.Footprint()
		t.Logf("%s: %d pages, %d bytes of bookkeeping", spec.Name, pages/vm.PageSize, bookkeeping)
		if pages != len(touched)*vm.PageSize {
			t.Errorf("%s: memory holds %d pages, the program wrote %d", spec.Name, pages/vm.PageSize, len(touched))
		}
		if bookkeeping > 1024 {
			t.Errorf("%s: %d bytes of bookkeeping, want at most 1 KiB", spec.Name, bookkeeping)
		}
	}
}
