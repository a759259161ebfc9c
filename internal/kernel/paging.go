// paging.go is the kernel half of paged virtual memory: the mmap arena
// and its page table (installed at load time when the kernel runs
// WithPagedMemory), the clock eviction policy over a resident-page
// budget, and the authenticated swap device. Eviction seals each page
// with a per-page CMAC plus a kernel-held generation counter
// (internal/ckpt.SealSwapFrame — checkpoint/restore in miniature);
// fault-in re-verifies, so a flipped bit on the swap device fails the
// seal and a replayed stale page fails the generation comparison. The
// response to either goes through the same graded enforcement as a
// failed call verification: Kill terminates, Deny records the violation
// and delivers a zero page (the refused content never reaches the
// process), Audit records and likewise refuses the bytes.
package kernel

import (
	"errors"
	"strconv"

	"asc/internal/ckpt"
	"asc/internal/sys"
	"asc/internal/vm"
)

const (
	// minPageBudget is the smallest usable resident budget: one span may
	// touch two pages, and the pager must always find an evictable page
	// outside the faulting span.
	minPageBudget = 4
	// arenaPages sizes the mmap arena (1 MiB of 4 KiB pages), carved out
	// of the address space just below the stack.
	arenaPages = 256
	// SwapDir is the VFS directory holding sealed swap frames, one
	// subdirectory per PID.
	SwapDir = "/var/run/swap"
	// pageFaultNum is the pseudo syscall number used in audit records for
	// violations detected on the page-fault path (there is no system call
	// in flight).
	pageFaultNum uint16 = 0xffff
)

// SwapInjector is the fault-injection hook on the swap device's write
// path: it receives every sealed frame on its way to the device and may
// return a replacement blob (a bit-flipped copy, a captured stale
// frame). A nil return stores the frame unmodified.
type SwapInjector interface {
	SwapEvict(p *Process, page uint32, gen uint64, blob []byte) []byte
}

// pager services one process's page faults against the resident budget.
// It is per-process state (like the verify cache) driven only by the
// goroutine running the process; the VFS underneath is goroutine-safe,
// so concurrent paged processes may share one swap directory tree.
type pager struct {
	p      *Process
	k      *Kernel
	pt     *vm.PageTable
	budget int

	// gens[i] is the authoritative eviction generation of page i: the
	// value the next fault-in of that page must find inside the sealed
	// frame. 0 means never evicted (fault-in is zero-fill).
	gens []uint64

	resident int
	hand     int // clock hand, a page index

	dir     string
	dirMade bool

	faults  uint64 // page faults serviced
	evicts  uint64 // pages sealed out to the swap device
	swapins uint64 // pages verified back in (excludes zero-fill)
}

// PageStats reports the demand-paging counters: faults serviced, pages
// evicted to the swap device, and pages verified back in. All zero for
// a process on a non-paged kernel.
func (p *Process) PageStats() (faults, evicts, swapins uint64) {
	if p.pager == nil {
		return 0, 0, 0
	}
	return p.pager.faults, p.pager.evicts, p.pager.swapins
}

// installPaging maps the mmap arena and its page table into a freshly
// loaded address space (called from loadImage when the kernel runs
// WithPagedMemory).
func (p *Process) installPaging(mem *vm.Memory, arenaEnd uint32) {
	arenaStart := arenaEnd - arenaPages*vm.PageSize
	mem.Map(vm.Segment{
		Name: "mmap", Start: arenaStart, End: arenaEnd,
		Perms: vm.PermRead | vm.PermWrite | vm.PermExec,
	})
	pt := vm.NewPageTable(arenaStart, arenaPages)
	g := &pager{
		p: p, k: p.kern, pt: pt, budget: p.kern.pagedBudget,
		gens: make([]uint64, arenaPages),
		dir:  SwapDir + "/" + strconv.Itoa(p.PID),
	}
	mem.SetPaging(pt, g)
	p.pager = g
}

// frameBlocks is the AES cost (in blocks) of sealing or verifying one
// page frame: the page itself plus the bound header. The pager charges
// the batched per-block rate — a page is one contiguous message under a
// single key schedule, the same streaming discount as group-committed
// control-flow updates.
const frameBlocks = vm.PageSize/16 + 4

func (g *pager) chargeSeal() {
	if g.k.key == nil {
		return
	}
	g.p.CPU.Cycles += g.k.Costs.PerAESBlockBatched * frameBlocks
	g.p.VerifyAESBlocks += frameBlocks
}

// PageFault implements vm.PageFaulter: it makes every mapped,
// non-present page of [addr, addr+n) resident, evicting pages outside
// the span as the budget requires.
func (g *pager) PageFault(addr, n uint32, access uint8) error {
	first, ok := g.pt.Index(addr)
	if !ok {
		return &vm.Fault{Addr: addr, Msg: "page fault outside the mmap arena"}
	}
	last, ok := g.pt.Index(addr + n - 1)
	if !ok {
		return &vm.Fault{Addr: addr, Msg: "page fault span leaves the mmap arena"}
	}
	for i := first; i <= last; i++ {
		f := g.pt.Flags(i)
		if f&vm.PageMapped == 0 || f&vm.PagePresent != 0 {
			continue
		}
		for g.resident >= g.budget {
			if err := g.evictOne(first, last); err != nil {
				return err
			}
		}
		if err := g.faultIn(i); err != nil {
			return err
		}
	}
	return nil
}

// evictOne runs the clock second-chance scan and seals one victim page
// out to the swap device. Pages in [skipFirst, skipLast] (the faulting
// span) are never victims.
func (g *pager) evictOne(skipFirst, skipLast int) error {
	n := g.pt.NumPages()
	for scanned := 0; scanned < 2*n+1; scanned++ {
		i := g.hand
		g.hand = (g.hand + 1) % n
		f := g.pt.Flags(i)
		if f&vm.PagePresent == 0 || (i >= skipFirst && i <= skipLast) {
			continue
		}
		if f&vm.PageAccessed != 0 {
			g.pt.SetFlags(i, f&^vm.PageAccessed)
			continue
		}
		return g.evict(i)
	}
	return &vm.Fault{Addr: g.pt.Base(), Msg: "no evictable page (working set exceeds the resident budget)"}
}

// evict seals page i and writes the frame to the swap device.
func (g *pager) evict(i int) error {
	g.p.CPU.Cycles += g.k.Costs.PageEvict
	g.evicts++
	g.gens[i]++
	data, err := g.p.Mem.RawRead(g.pt.PageAddr(i), vm.PageSize)
	if err != nil {
		return err
	}
	blob := ckpt.SealSwapFrame(g.k.key, &ckpt.SwapFrame{
		Owner: uint64(g.p.PID), Page: uint32(i), Gen: g.gens[i], Data: data,
	})
	g.chargeSeal()
	if si, ok := g.k.injector.(SwapInjector); ok && g.k.injector != nil {
		if nb := si.SwapEvict(g.p, uint32(i), g.gens[i], blob); nb != nil {
			blob = nb
		}
	}
	if !g.dirMade {
		if err := g.k.FS.MkdirAll(g.dir, 0o700); err != nil {
			return &vm.Fault{Addr: g.pt.PageAddr(i), Msg: "swap device: " + err.Error()}
		}
		g.dirMade = true
	}
	if err := g.k.FS.WriteFile(g.framePath(i), blob, 0o600); err != nil {
		return &vm.Fault{Addr: g.pt.PageAddr(i), Msg: "swap device: " + err.Error()}
	}
	// Free the frame, so any access that skips the paging check reads
	// zeros, not stale secrets.
	g.p.Mem.Zero(g.pt.PageAddr(i), vm.PageSize)
	g.pt.SetFlags(i, g.pt.Flags(i)&^(vm.PagePresent|vm.PageAccessed|vm.PageDirty))
	g.resident--
	return nil
}

// faultIn makes page i resident: zero fill if it was never evicted,
// otherwise read its frame from the swap device and verify the seal and
// generation before the bytes reach the process. A page that is not
// present is not allocated (eviction and munmap free it), so zero fill
// leaves it so: it reads as zeros until its first write.
func (g *pager) faultIn(i int) error {
	g.p.CPU.Cycles += g.k.Costs.PageFault
	g.faults++
	addr := g.pt.PageAddr(i)
	if g.gens[i] == 0 {
		g.pt.SetFlags(i, g.pt.Flags(i)|vm.PagePresent)
		g.resident++
		return nil
	}
	blob, err := g.k.FS.ReadFile(g.framePath(i))
	if err != nil {
		return g.tamper(i, ckpt.ErrSwapSeal)
	}
	g.chargeSeal()
	f, err := ckpt.OpenSwapFrame(g.k.key, uint64(g.p.PID), uint32(i), g.gens[i], blob)
	if err != nil {
		return g.tamper(i, err)
	}
	if len(f.Data) != vm.PageSize {
		return g.tamper(i, ckpt.ErrSwapSeal)
	}
	if err := g.p.Mem.RawWrite(addr, f.Data); err != nil {
		return err
	}
	g.swapins++
	g.pt.SetFlags(i, g.pt.Flags(i)|vm.PagePresent)
	g.resident++
	return nil
}

// tamper applies the process's enforcement mode to a swap verification
// failure detected while servicing the fault on page i. Kill halts the
// process (the returned error unwinds the in-flight instruction); Deny
// and Audit record the violation, refuse the unverifiable bytes, and
// deliver a zero page so the process keeps running — the paged analogue
// of refusing a call with EPERM.
func (g *pager) tamper(i int, cause error) error {
	reason := KillSwapSeal
	if errors.Is(cause, ckpt.ErrSwapStale) {
		reason = KillSwapReplay
	}
	p, k, addr := g.p, g.k, g.pt.PageAddr(i)
	if p.Enforcement == EnforceKill {
		k.kill(p, pageFaultNum, addr, reason)
		p.CPU.Halted = true
		return &vm.Fault{Addr: addr, Msg: "killed: " + string(reason)}
	}
	if p.Enforcement == EnforceDeny {
		p.DeniedCount++
		k.record(p, pageFaultNum, addr, reason, ActionDeny)
	} else {
		p.AuditedCount++
		k.record(p, pageFaultNum, addr, reason, ActionAudit)
	}
	// The frame is gone as far as this process is concerned: deliver a
	// zero page (eviction freed the page, so it reads as zeros) and
	// retire the generation so later faults do not re-read the tampered
	// frame.
	g.gens[i] = 0
	g.pt.SetFlags(i, g.pt.Flags(i)|vm.PagePresent)
	g.resident++
	p.Mem.BumpGeneration(addr, vm.PageSize)
	return nil
}

func (g *pager) framePath(i int) string {
	return g.dir + "/" + strconv.Itoa(i)
}

// protToPage translates mmap PROT_* bits into page flags; ok is false
// when prot carries bits outside PROT_READ|PROT_WRITE|PROT_EXEC.
func protToPage(prot uint32) (vm.PageFlags, bool) {
	if prot&^uint32(sys.ProtRead|sys.ProtWrite|sys.ProtExec) != 0 {
		return 0, false
	}
	var f vm.PageFlags
	if prot&sys.ProtRead != 0 {
		f |= vm.PageRead
	}
	if prot&sys.ProtWrite != 0 {
		f |= vm.PageWrite
	}
	if prot&sys.ProtExec != 0 {
		f |= vm.PageExec
	}
	return f, true
}

// sysMmapPaged is mmap(2) on the paged arena: anonymous private
// mappings only, placed first-fit. The protection argument is a
// policy-constrained immediate in authenticated binaries (MOVI-loaded
// constants are bound by the call MAC), so a tampered PROT value fails
// call verification before this handler runs.
func (k *Kernel) sysMmapPaged(p *Process, addr, length, prot, flags, fd uint32) uint32 {
	g := p.pager
	pf, ok := protToPage(prot)
	if !ok || length == 0 || addr != 0 {
		return errno(sys.EINVAL)
	}
	if flags&sys.MapAnonymous == 0 {
		return errno(sys.ENOSYS) // file-backed mappings are not modeled
	}
	_ = fd // ignored for anonymous mappings, as on Linux
	npages := int((uint64(length) + vm.PageSize - 1) / vm.PageSize)
	if npages > g.pt.NumPages() {
		return errno(sys.ENOMEM)
	}
	run := 0
	for i := 0; i < g.pt.NumPages(); i++ {
		if g.pt.Flags(i)&vm.PageMapped != 0 {
			run = 0
			continue
		}
		run++
		if run == npages {
			start := i - npages + 1
			for j := start; j <= i; j++ {
				g.pt.SetFlags(j, vm.PageMapped|pf)
				g.gens[j] = 0
			}
			return g.pt.PageAddr(start)
		}
	}
	return errno(sys.ENOMEM)
}

// arenaRange validates an (addr, length) pair as a page-aligned,
// fully-mapped page range of the arena.
func (g *pager) arenaRange(addr, length uint32) (first, last int, ok bool) {
	if length == 0 || addr&(vm.PageSize-1) != 0 {
		return 0, 0, false
	}
	first, ok = g.pt.Index(addr)
	if !ok {
		return 0, 0, false
	}
	end := uint64(addr) + uint64(length)
	if end > uint64(g.pt.End()) {
		return 0, 0, false
	}
	last = int((uint32(end) - 1 - g.pt.Base()) >> vm.PageShift)
	for i := first; i <= last; i++ {
		if g.pt.Flags(i)&vm.PageMapped == 0 {
			return 0, 0, false
		}
	}
	return first, last, true
}

// sysMunmapPaged unmaps a page range: resident pages are dropped (not
// sealed out), swap residue is unlinked, and generations reset so a
// later mapping of the same pages starts zero-filled.
func (k *Kernel) sysMunmapPaged(p *Process, addr, length uint32) uint32 {
	g := p.pager
	first, last, ok := g.arenaRange(addr, length)
	if !ok {
		return errno(sys.EINVAL)
	}
	for i := first; i <= last; i++ {
		if g.pt.Flags(i)&vm.PagePresent != 0 {
			g.resident--
		}
		if g.gens[i] != 0 {
			_ = k.FS.Unlink(g.framePath(i))
		}
		g.gens[i] = 0
		g.pt.SetFlags(i, 0)
	}
	// Free the pages, so a future mapping cannot read the dead bytes.
	p.Mem.Zero(addr, uint32(last-first+1)*vm.PageSize)
	return 0
}

// sysMprotectPaged rewrites the protection bits of a mapped page range;
// present/accessed/dirty state and swap generations are untouched.
func (k *Kernel) sysMprotectPaged(p *Process, addr, length, prot uint32) uint32 {
	g := p.pager
	pf, ok := protToPage(prot)
	if !ok {
		return errno(sys.EINVAL)
	}
	first, last, ok2 := g.arenaRange(addr, length)
	if !ok2 {
		return errno(sys.EINVAL)
	}
	for i := first; i <= last; i++ {
		f := g.pt.Flags(i)
		g.pt.SetFlags(i, (f&^vm.PageProtMask)|pf)
	}
	return 0
}
