// ckpt.go implements sealed process checkpoint/restore at the kernel
// layer. Checkpoint captures the complete state of a quiesced process
// (any instruction boundary is safe: the trap handler updates the
// CF-state words and the in-kernel nonce inside one Step, so they are
// never observed half-advanced) and seals it via internal/ckpt under the
// kernel's policy MAC key. Restore is the mirror, and it *verifies*
// rather than trusts: the seal, the caller's trusted epoch, the program
// tag, and — after the overlay — the control-flow state MAC and the
// capability set, both of which are then re-sealed under bumped nonces
// so pre-checkpoint copies of either die with the restore. The verify
// cache is deliberately not restored; the first post-restore trap at
// each site pays full AES re-verification.
package kernel

import (
	"errors"
	"fmt"

	"asc/internal/binfmt"
	"asc/internal/captrack"
	"asc/internal/ckpt"
	"asc/internal/isa"
	"asc/internal/mac"
	"asc/internal/policy"
	"asc/internal/vm"
)

// stateSymbol is the installer's control-flow state location ({lastBlock,
// lbMAC} in the .auth section).
const stateSymbol = "__asc_state"

// progTag returns the checkpoint program tag of an executable, computed
// on first use and kept in its record (executables are immutable once
// installed; keeping it makes checkpoint cadence under the SMP scheduler
// allocation-cheap).
func (k *Kernel) progTag(pr *program) (mac.Tag, error) {
	if t := pr.tag.Load(); t != nil {
		return *t, nil
	}
	b, err := pr.file.Bytes()
	if err != nil {
		return mac.Tag{}, fmt.Errorf("kernel: serialize program: %w", err)
	}
	tag := ckpt.ProgramTag(k.key, b)
	pr.tag.Store(&tag)
	return tag, nil
}

// Checkpoint seals the complete state of p under the given epoch. The
// caller owns epoch monotonicity (ckpt.Store enforces it); the kernel
// only binds the chosen value into the seal. Processes holding pipes or
// sockets are not checkpointable and fail with ckpt.ErrUnsupported.
func (k *Kernel) Checkpoint(p *Process, epoch uint64) ([]byte, error) {
	if k.key == nil {
		return nil, errors.New("kernel: checkpoint requires a MAC key")
	}
	if p.Exited || p.Killed {
		return nil, fmt.Errorf("%w: process has exited", ckpt.ErrUnsupported)
	}
	tag, err := k.progTag(p.prog)
	if err != nil {
		return nil, err
	}

	// Group-committed CF updates must land in application memory before
	// the segments are captured, or the restored image would disagree
	// with the restored counter. The drain is off the guest clock: a
	// checkpoint is an external observation, not work the process did.
	cyc, aes := p.CPU.Cycles, p.VerifyAESBlocks
	k.drainCommit(p)
	p.CPU.Cycles, p.VerifyAESBlocks = cyc, aes

	st := &ckpt.State{
		Epoch:           epoch,
		ProgTag:         tag,
		Name:            p.Name,
		Authenticated:   p.authenticated,
		Enforcement:     uint32(p.Enforcement),
		Regs:            append([]uint32(nil), p.CPU.Regs[:]...),
		PC:              p.CPU.PC,
		Cycles:          p.CPU.Cycles,
		Halted:          p.CPU.Halted,
		MemBase:         p.Mem.Base(),
		MemSize:         p.Mem.Limit() - p.Mem.Base(),
		Brk:             p.brk,
		Counter:         p.counter,
		FDTrack:         p.fdTracker != nil,
		Cwd:             p.cwd,
		Umask:           p.umask,
		Stdin:           append([]byte(nil), p.Stdin...),
		StdinPos:        uint32(p.stdinPos),
		Stdout:          append([]byte(nil), p.Stdout...),
		NumFDSlots:      uint32(len(p.fds)),
		SyscallCount:    p.SyscallCount,
		VerifyCount:     p.VerifyCount,
		VerifyAESBlocks: p.VerifyAESBlocks,
		DeniedCount:     p.DeniedCount,
		AuditedCount:    p.AuditedCount,
	}
	// Shares are a fleet-level metric and deliberately not part of the
	// sealed blob (the blob format predates the fleet cache); a restored
	// process re-earns them against the live fleet cache.
	cs := p.CacheStats()
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheInvalidations = cs.Invalidations
	if p.fdTracker != nil {
		st.FDTrackCounter = p.fdTracker.Counter()
	}

	// Memory is captured raw, as runs of the pages that hold a nonzero
	// byte (consecutive such pages form one run): the walk allocates no
	// page and does not go through the paged accessors, which would
	// thrash the working set (and fault on unmapped pages). Evicted arena
	// pages are freed, so they yield no run; their contents travel in the
	// paged section below.
	segs, gens := p.Mem.SnapshotSegments()
	st.Segs = make([]ckpt.SegState, len(segs))
	for i, sg := range segs {
		s := ckpt.SegState{Name: sg.Name, Start: sg.Start, End: sg.End, Perms: sg.Perms, Gen: gens[i]}
		p.Mem.NonzeroRuns(sg.Start, sg.End, func(addr uint32, b []byte) {
			if n := len(s.Runs) - 1; n >= 0 && sg.Start+s.Runs[n].Off+uint32(len(s.Runs[n].Data)) == addr {
				s.Runs[n].Data = append(s.Runs[n].Data, b...)
			} else {
				s.Runs = append(s.Runs, ckpt.Run{Off: addr - sg.Start, Data: append([]byte(nil), b...)})
			}
		})
		st.Segs[i] = s
	}

	if err := k.checkpointPaging(p, st); err != nil {
		return nil, err
	}

	for slot, e := range p.fds {
		if e == nil {
			continue
		}
		fd := ckpt.FDState{Slot: uint32(slot), Kind: uint32(e.kind), Offset: e.offset}
		switch e.kind {
		case fdFile:
			fd.Path = e.path
		case fdConsole:
		default:
			return nil, fmt.Errorf("%w: fd %d is a pipe or socket", ckpt.ErrUnsupported, slot)
		}
		st.FDs = append(st.FDs, fd)
	}
	for num, h := range p.sigHandlers {
		st.Sigs = append(st.Sigs, ckpt.SigState{Num: num, Handler: h})
	}
	// Map iteration order is random; the serialization must not be.
	for i := 1; i < len(st.Sigs); i++ {
		for j := i; j > 0 && st.Sigs[j].Num < st.Sigs[j-1].Num; j-- {
			st.Sigs[j], st.Sigs[j-1] = st.Sigs[j-1], st.Sigs[j]
		}
	}

	return ckpt.Seal(k.key, st), nil
}

// checkpointPaging captures the paged-memory section: the page table,
// the per-page swap generations, and the swap residue (evicted pages
// whose sealed frames still live on the device). Each residue frame is
// verified at capture time — a checkpoint must not launder a tampered
// swap device into a sealed blob the restore would then trust.
func (k *Kernel) checkpointPaging(p *Process, st *ckpt.State) error {
	if p.pager == nil {
		return nil
	}
	g := p.pager
	n := g.pt.NumPages()
	st.Paged = true
	st.PageBase = g.pt.Base()
	st.PageHand = uint32(g.hand)
	st.PageFlags = make([]byte, n)
	st.PageGens = append([]uint64(nil), g.gens...)
	for i := 0; i < n; i++ {
		st.PageFlags[i] = byte(g.pt.Flags(i))
		if g.pt.Flags(i)&vm.PagePresent != 0 || g.gens[i] == 0 {
			continue
		}
		blob, err := k.FS.ReadFile(g.framePath(i))
		if err != nil {
			return fmt.Errorf("kernel: checkpoint swap page %d: %w: %v", i, ckpt.ErrState, err)
		}
		f, err := ckpt.OpenSwapFrame(k.key, uint64(p.PID), uint32(i), g.gens[i], blob)
		if err != nil {
			return fmt.Errorf("kernel: checkpoint swap page %d: %w: %v", i, ckpt.ErrState, err)
		}
		if len(f.Data) != vm.PageSize {
			return fmt.Errorf("kernel: checkpoint swap page %d: %w: %d-byte frame", i, ckpt.ErrState, len(f.Data))
		}
		st.SwapPages = append(st.SwapPages, ckpt.SwapPageState{Index: uint32(i), Data: f.Data})
	}
	return nil
}

// restorePaging overlays the paged-memory section onto a freshly spawned
// pager: the page table and generations come back verbatim, and the swap
// residue is re-sealed under the restored process's identity (new PID,
// same generations) so the restored frames bind to the process that will
// fault them in.
func (k *Kernel) restorePaging(p *Process, st *ckpt.State) error {
	statef := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ckpt.ErrState, fmt.Sprintf(format, args...))
	}
	g := p.pager
	n := g.pt.NumPages()
	if st.PageBase != g.pt.Base() {
		return statef("arena base %#x, want %#x", st.PageBase, g.pt.Base())
	}
	if len(st.PageFlags) != n {
		return statef("%d page-table entries, want %d", len(st.PageFlags), n)
	}
	if st.PageHand >= uint32(n) {
		return statef("clock hand %d outside %d pages", st.PageHand, n)
	}
	resident := 0
	for i := 0; i < n; i++ {
		f := vm.PageFlags(st.PageFlags[i])
		if f&^(vm.PageProtMask|vm.PageMapped|vm.PagePresent|vm.PageAccessed|vm.PageDirty) != 0 {
			return statef("page %d: unknown flag bits %#x", i, st.PageFlags[i])
		}
		if f&vm.PageMapped == 0 && (f != 0 || st.PageGens[i] != 0) {
			return statef("page %d: state on an unmapped page", i)
		}
		if f&vm.PagePresent != 0 {
			resident++
		}
		g.pt.SetFlags(i, f)
	}
	if resident > g.budget {
		return statef("%d resident pages over a budget of %d", resident, g.budget)
	}
	copy(g.gens, st.PageGens)
	g.hand = int(st.PageHand)
	g.resident = resident

	// Swap residue: exactly the evicted pages, each exactly once.
	want := make(map[uint32]bool, len(st.SwapPages))
	for i := 0; i < n; i++ {
		if vm.PageFlags(st.PageFlags[i])&vm.PagePresent == 0 && st.PageGens[i] != 0 {
			want[uint32(i)] = true
		}
	}
	if len(st.SwapPages) != len(want) {
		return statef("%d swap pages for %d evicted", len(st.SwapPages), len(want))
	}
	for i := range st.SwapPages {
		sp := &st.SwapPages[i]
		if !want[sp.Index] {
			return statef("swap page %d: duplicate or not evicted", sp.Index)
		}
		want[sp.Index] = false
		if len(sp.Data) != vm.PageSize {
			return statef("swap page %d: %d data bytes", sp.Index, len(sp.Data))
		}
		blob := ckpt.SealSwapFrame(k.key, &ckpt.SwapFrame{
			Owner: uint64(p.PID), Page: sp.Index, Gen: g.gens[sp.Index], Data: sp.Data,
		})
		if !g.dirMade {
			if err := k.FS.MkdirAll(g.dir, 0o700); err != nil {
				return statef("swap device: %v", err)
			}
			g.dirMade = true
		}
		if err := k.FS.WriteFile(g.framePath(int(sp.Index)), blob, 0o600); err != nil {
			return statef("swap device: %v", err)
		}
	}
	return nil
}

// Restore spawns a fresh process from exe and overlays a sealed
// checkpoint onto it. wantEpoch is the *trusted* epoch the caller
// recorded when the checkpoint was stored; a genuine-but-older sealed
// blob replayed into this slot fails the epoch check. On any failure the
// partially-built process is discarded and never runnable.
func (k *Kernel) Restore(exe *binfmt.File, name string, blob []byte, wantEpoch uint64) (*Process, error) {
	if k.key == nil {
		return nil, errors.New("kernel: restore requires a MAC key")
	}
	st, err := ckpt.Open(k.key, blob)
	if err != nil {
		return nil, fmt.Errorf("kernel: restore %s: %w", name, err)
	}
	if st.Epoch != wantEpoch {
		return nil, fmt.Errorf("kernel: restore %s: %w: sealed epoch %d, stored under %d",
			name, ckpt.ErrEpoch, st.Epoch, wantEpoch)
	}
	tag, err := k.progTag(k.program(exe))
	if err != nil {
		return nil, err
	}
	if !tag.Equal(st.ProgTag) {
		return nil, fmt.Errorf("kernel: restore %s: %w", name, ckpt.ErrProgram)
	}

	p, err := k.Spawn(exe, name)
	if err != nil {
		return nil, err
	}
	if err := k.overlay(p, st); err != nil {
		k.unregister(p)
		return nil, fmt.Errorf("kernel: restore %s: %w", name, err)
	}
	if err := k.reverify(p, exe, st); err != nil {
		k.unregister(p)
		return nil, fmt.Errorf("kernel: restore %s: %w", name, err)
	}
	return p, nil
}

// unregister removes a process from the PID table (failed restores must
// not leave half-built processes visible to monitors).
func (k *Kernel) unregister(p *Process) {
	k.mu.Lock()
	delete(k.procs, p.PID)
	k.mu.Unlock()
}

// overlay applies authenticated checkpoint state to a freshly spawned
// process. The blob's seal was already verified, so inconsistencies here
// mean the checkpoint does not fit this kernel's environment (a changed
// executable would have failed the program tag); they classify as
// ckpt.ErrState.
func (k *Kernel) overlay(p *Process, st *ckpt.State) error {
	statef := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ckpt.ErrState, fmt.Sprintf(format, args...))
	}
	if len(st.Regs) != isa.NumRegs {
		return statef("%d registers, want %d", len(st.Regs), isa.NumRegs)
	}
	if st.MemBase != p.Mem.Base() || st.MemSize != p.Mem.Limit()-p.Mem.Base() {
		return statef("address space %#x+%#x, want %#x+%#x",
			st.MemBase, st.MemSize, p.Mem.Base(), p.Mem.Limit()-p.Mem.Base())
	}
	if st.Authenticated != p.authenticated {
		return statef("authenticated=%v, spawned %v", st.Authenticated, p.authenticated)
	}
	if st.FDTrack != (p.fdTracker != nil) {
		return statef("capability tracker presence mismatch")
	}
	if Enforcement(st.Enforcement) > EnforceAudit {
		return statef("unknown enforcement mode %d", st.Enforcement)
	}
	if st.NumFDSlots > maxFDs {
		return statef("%d fd slots, max %d", st.NumFDSlots, maxFDs)
	}
	if st.Paged != (p.pager != nil) {
		return statef("paged=%v, spawned on a kernel with paged=%v", st.Paged, p.pager != nil)
	}

	// Memory: drop every page of the spawned image — so every byte no
	// run restores reads zero — then write each segment's runs, which
	// allocates exactly their pages, and install the protection map and
	// generation counters wholesale.
	p.Mem.Zero(p.Mem.Base(), p.Mem.Limit()-p.Mem.Base())
	segs := make([]vm.Segment, len(st.Segs))
	gens := make([]uint64, len(st.Segs))
	for i := range st.Segs {
		sg := &st.Segs[i]
		// The arena's runs were captured raw; restore them the same way.
		// The torn-write fault class depends on every other segment going
		// through the checked KernelWrite path.
		write := p.Mem.KernelWrite
		if p.pager != nil && sg.Name == "mmap" {
			write = p.Mem.RawWrite
		}
		for _, r := range sg.Runs {
			if err := write(sg.Start+r.Off, r.Data); err != nil {
				return statef("segment %s: %v", sg.Name, err)
			}
		}
		segs[i] = vm.Segment{Name: sg.Name, Start: sg.Start, End: sg.End, Perms: sg.Perms}
		gens[i] = sg.Gen
	}
	if err := p.Mem.RestoreSegments(segs, gens); err != nil {
		return statef("%v", err)
	}
	p.Mem.AttachText(p.prog.text)
	if st.Paged {
		if err := k.restorePaging(p, st); err != nil {
			return err
		}
	}

	copy(p.CPU.Regs[:], st.Regs)
	p.CPU.PC = st.PC
	p.CPU.Cycles = st.Cycles
	p.CPU.Halted = st.Halted

	p.Enforcement = Enforcement(st.Enforcement)
	p.brk = st.Brk
	p.cwd = st.Cwd
	p.umask = st.Umask
	p.Stdin = append([]byte(nil), st.Stdin...)
	p.stdinPos = int(st.StdinPos)
	p.Stdout = append([]byte(nil), st.Stdout...)
	p.counter = st.Counter

	// Descriptor table: rebuild, re-resolving file paths against the
	// live VFS. A file that vanished since the checkpoint is an
	// environment mismatch, not a corruption.
	fds := make([]*fdEntry, st.NumFDSlots)
	for _, fd := range st.FDs {
		if fd.Slot >= st.NumFDSlots {
			return statef("fd slot %d outside table of %d", fd.Slot, st.NumFDSlots)
		}
		if fds[fd.Slot] != nil {
			return statef("fd slot %d restored twice", fd.Slot)
		}
		switch fdKind(fd.Kind) {
		case fdConsole:
			fds[fd.Slot] = &fdEntry{kind: fdConsole}
		case fdFile:
			node, err := k.FS.Lookup(fd.Path)
			if err != nil {
				return statef("fd %d: %s: %v", fd.Slot, fd.Path, err)
			}
			fds[fd.Slot] = &fdEntry{kind: fdFile, node: node, path: fd.Path, offset: fd.Offset}
		default:
			return statef("fd %d: kind %d not restorable", fd.Slot, fd.Kind)
		}
	}
	p.fds = fds

	p.sigHandlers = make(map[uint32]uint32, len(st.Sigs))
	for _, sg := range st.Sigs {
		p.sigHandlers[sg.Num] = sg.Handler
	}

	p.SyscallCount = st.SyscallCount
	p.VerifyCount = st.VerifyCount
	p.VerifyAESBlocks = st.VerifyAESBlocks
	p.DeniedCount = st.DeniedCount
	p.AuditedCount = st.AuditedCount
	p.setCacheStats(CacheStats{
		Hits:          st.CacheHits,
		Misses:        st.CacheMisses,
		Invalidations: st.CacheInvalidations,
	})
	// p.vcache stays nil: cached verifications are monitor-internal and
	// cheap to rebuild, so restore re-verifies every site from scratch.
	// The group-commit mirror likewise starts cold: the blob's memory
	// image is self-consistent (Checkpoint drained before sealing), and
	// the first post-restore CF call re-arms via the classic check.
	p.commit = cfCommit{pending: p.commit.pending[:0]}
	return nil
}

// reverify re-checks the verification state the overlay brought back and
// re-seals it under bumped nonces, all before the process runs a single
// instruction. The MACs are recomputed off the guest clock (restore is
// kernel work, not process work), so restored cycle counts stay exactly
// the sealed ones.
func (k *Kernel) reverify(p *Process, exe *binfmt.File, st *ckpt.State) error {
	if p.authenticated {
		if addr, ok := exe.SymbolAddr(stateSymbol); ok {
			lastBlock, err := p.Mem.KernelLoad32(addr)
			if err != nil {
				return fmt.Errorf("%w: CF state unreadable", ckpt.ErrState)
			}
			lbBytes, err := p.Mem.KernelRead(addr+4, mac.Size)
			if err != nil {
				return fmt.Errorf("%w: CF state unreadable", ckpt.ErrState)
			}
			var lbMAC mac.Tag
			copy(lbMAC[:], lbBytes)
			want, _ := policy.StateMAC(k.key, lastBlock, p.counter)
			if !want.Equal(lbMAC) {
				return fmt.Errorf("%w: control-flow state MAC mismatch", ckpt.ErrState)
			}
			// Advance the nonce and re-seal: the pre-checkpoint copy of
			// {lastBlock, lbMAC} in any other snapshot of this memory no
			// longer verifies against this kernel.
			p.counter++
			fresh, _ := policy.StateMAC(k.key, lastBlock, p.counter)
			if err := p.Mem.KernelWrite(addr+4, fresh[:]); err != nil {
				return fmt.Errorf("%w: CF state rewrite failed", ckpt.ErrState)
			}
		}
	}
	if p.fdTracker != nil {
		p.fdTracker.SetCounter(st.FDTrackCounter)
		if err := p.fdTracker.Reseed(p.Mem); err != nil {
			if errors.Is(err, captrack.ErrTampered) {
				return fmt.Errorf("%w: capability set MAC mismatch", ckpt.ErrState)
			}
			return fmt.Errorf("%w: capability set: %v", ckpt.ErrState, err)
		}
	}
	return nil
}
