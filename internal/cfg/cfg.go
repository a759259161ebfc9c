// Package cfg performs the first stages of the trusted installer's static
// analysis: disassembly of the .text section, function identification, and
// basic-block / control-flow-graph construction.
//
// Disassembly is a linear sweep at the fixed 8-byte instruction stride.
// All-zero chunks are treated as inter-function padding. Any other
// undecodable chunk is recorded as a gap and the enclosing function is
// marked incomplete — the analogue of PLTO reporting that it "cannot
// completely disassemble a binary" (the OpenBSD close stub of Table 2).
//
// Blocks are formed so that a basic block contains at most one system
// call, which always terminates its block: the paper identifies each
// system call site by the basic block containing it, and block IDs are the
// currency of control-flow policies.
package cfg

import (
	"fmt"
	"sort"

	"asc/internal/binfmt"
	"asc/internal/isa"
)

// Instruction is one decoded instruction at a known address.
type Instruction struct {
	Addr  uint32
	Instr isa.Instr
	Reloc bool // the Imm field is covered by a relocation entry
}

// Gap is an undecodable region of .text.
type Gap struct {
	Start uint32
	End   uint32
	Func  string // enclosing function, if known
}

// Block is a basic block.
type Block struct {
	ID    int // 1-based, unique within the program
	Func  *Func
	Start uint32
	End   uint32 // exclusive
	Insns []Instruction

	Succs []*Block // intraprocedural successors (CALL treated as fallthrough)
	Preds []*Block

	CallTo   []uint32 // direct call target addresses
	Indirect bool     // ends with CALLR
	IsRet    bool     // ends with RET
	IsExit   bool     // ends with HALT

	// Syscall describes the system call terminating this block, if any.
	Syscall *SyscallSite
}

// Last returns the final instruction of the block.
func (b *Block) Last() Instruction {
	return b.Insns[len(b.Insns)-1]
}

// SyscallSite is a system call instruction and what is statically known
// about it at block-construction time.
type SyscallSite struct {
	Addr     uint32 // address of the SYSCALL/ASYSCALL instruction
	Block    *Block
	Num      uint16 // system call number, if NumKnown
	NumKnown bool   // R0 was set by a MOVI within the block
	Authed   bool   // instruction is ASYSCALL
}

// Func is a function: a region of .text starting at a SymFunc symbol.
type Func struct {
	Name       string
	Entry      uint32
	End        uint32 // exclusive
	Blocks     []*Block
	Incomplete bool // contains undecodable gaps
}

// EntryBlock returns the block at the function entry, or nil.
func (f *Func) EntryBlock() *Block {
	for _, b := range f.Blocks {
		if b.Start == f.Entry {
			return b
		}
	}
	return nil
}

// Program is the analysis result for one binary.
type Program struct {
	File   *binfmt.File
	Funcs  []*Func
	Blocks []*Block // all blocks, ID order
	Gaps   []Gap

	funcByEntry map[uint32]*Func
	blockByAddr map[uint32]*Block // keyed by start address
}

// FuncAt returns the function whose entry is addr.
func (p *Program) FuncAt(addr uint32) *Func { return p.funcByEntry[addr] }

// FuncNamed returns the function with the given name, or nil.
func (p *Program) FuncNamed(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// BlockContaining returns the block whose address range covers addr.
func (p *Program) BlockContaining(addr uint32) *Block {
	for _, b := range p.Blocks {
		if addr >= b.Start && addr < b.End {
			return b
		}
	}
	return nil
}

// SyscallSites returns every syscall site in program order.
func (p *Program) SyscallSites() []*SyscallSite {
	var out []*SyscallSite
	for _, b := range p.Blocks {
		if b.Syscall != nil {
			out = append(out, b.Syscall)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Analyze disassembles the laid-out binary and builds functions, blocks,
// and the intraprocedural CFG.
func Analyze(f *binfmt.File) (*Program, error) {
	text := f.Section(binfmt.SecText)
	if text == nil {
		return nil, fmt.Errorf("cfg: no .text section")
	}
	p := &Program{
		File:        f,
		funcByEntry: make(map[uint32]*Func),
		blockByAddr: make(map[uint32]*Block),
	}

	// Index relocation offsets in .text (they cover instruction Imm
	// fields at instrOffset+4).
	textIdx := f.SectionIndex(binfmt.SecText)
	relocAt := make(map[uint32]bool)
	for _, r := range f.Relocs {
		if r.Section == textIdx {
			relocAt[text.Addr+r.Offset] = true
		}
	}

	// Function boundaries from SymFunc symbols, sorted by address.
	var fns []fnSym
	for i := range f.Symbols {
		s := &f.Symbols[i]
		if s.Kind != binfmt.SymFunc || !s.Defined() {
			continue
		}
		if f.Sections[s.Section].Name != binfmt.SecText {
			continue
		}
		fns = append(fns, fnSym{s.Name, text.Addr + s.Value})
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].addr < fns[j].addr })
	// Drop duplicate entries at the same address (aliases).
	fns = dedupeFns(fns)
	if len(fns) == 0 {
		return nil, fmt.Errorf("cfg: no function symbols in .text")
	}

	for i, fn := range fns {
		end := text.End()
		if i+1 < len(fns) {
			end = fns[i+1].addr
		}
		fun := &Func{Name: fn.name, Entry: fn.addr, End: end}
		p.Funcs = append(p.Funcs, fun)
		p.funcByEntry[fn.addr] = fun
	}

	// Linear-sweep disassembly per function.
	for _, fun := range p.Funcs {
		insns, gaps := sweep(f, text, fun, relocAt)
		if len(gaps) > 0 {
			fun.Incomplete = true
			p.Gaps = append(p.Gaps, gaps...)
		}
		buildBlocks(p, fun, insns)
	}

	// Resolve intraprocedural edges and syscall numbers.
	for _, fun := range p.Funcs {
		linkBlocks(p, fun)
	}
	for _, b := range p.Blocks {
		if b.Syscall != nil {
			resolveSyscallNum(b)
		}
	}
	return p, nil
}

// fnSym pairs a function symbol name with its resolved address.
type fnSym struct {
	name string
	addr uint32
}

func dedupeFns(fns []fnSym) []fnSym {
	out := fns[:0]
	for i, fn := range fns {
		if i > 0 && fn.addr == fns[i-1].addr {
			continue
		}
		out = append(out, fn)
	}
	return out
}

// sweep decodes the function body, skipping zero padding and recording
// gaps at undecodable chunks.
func sweep(f *binfmt.File, text *binfmt.Section, fun *Func, relocAt map[uint32]bool) ([]Instruction, []Gap) {
	var insns []Instruction
	var gaps []Gap
	addr := fun.Entry
	for addr+isa.InstrSize <= fun.End {
		off := addr - text.Addr
		chunk := text.Data[off : off+isa.InstrSize]
		if allZero(chunk) {
			addr += isa.InstrSize
			continue
		}
		in, err := isa.Decode(chunk)
		if err != nil {
			if len(gaps) > 0 && gaps[len(gaps)-1].End == addr {
				gaps[len(gaps)-1].End = addr + isa.InstrSize
			} else {
				gaps = append(gaps, Gap{Start: addr, End: addr + isa.InstrSize, Func: fun.Name})
			}
			addr += isa.InstrSize
			continue
		}
		insns = append(insns, Instruction{Addr: addr, Instr: in, Reloc: relocAt[addr+4]})
		addr += isa.InstrSize
	}
	// A trailing partial chunk that is not zero is also a gap.
	if addr < fun.End {
		off := addr - text.Addr
		if !allZero(text.Data[off : fun.End-text.Addr]) {
			gaps = append(gaps, Gap{Start: addr, End: fun.End, Func: fun.Name})
		}
	}
	return insns, gaps
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// buildBlocks splits the instruction list into basic blocks.
func buildBlocks(p *Program, fun *Func, insns []Instruction) {
	if len(insns) == 0 {
		return
	}
	leaders := map[uint32]bool{insns[0].Addr: true}
	for i, in := range insns {
		op := in.Instr
		if op.IsBranch() || op.IsSyscall() {
			if i+1 < len(insns) {
				leaders[insns[i+1].Addr] = true
			}
			if op.HasImmTarget() && op.Op != isa.OpCALL {
				// Branch target within the function.
				if op.Imm >= fun.Entry && op.Imm < fun.End {
					leaders[op.Imm] = true
				}
			}
		}
	}
	var cur *Block
	flush := func() {
		if cur != nil && len(cur.Insns) > 0 {
			cur.End = cur.Insns[len(cur.Insns)-1].Addr + isa.InstrSize
			fun.Blocks = append(fun.Blocks, cur)
		}
		cur = nil
	}
	for _, in := range insns {
		if leaders[in.Addr] {
			flush()
			cur = &Block{Func: fun, Start: in.Addr}
		}
		if cur == nil {
			// Unreachable prefix after a gap; start a block anyway so
			// nothing is silently dropped.
			cur = &Block{Func: fun, Start: in.Addr}
		}
		cur.Insns = append(cur.Insns, in)
	}
	flush()
	for _, b := range fun.Blocks {
		b.ID = len(p.Blocks) + 1
		p.Blocks = append(p.Blocks, b)
		p.blockByAddr[b.Start] = b
	}
}

// linkBlocks computes intraprocedural successor edges and classifies
// block terminators.
func linkBlocks(p *Program, fun *Func) {
	for i, b := range fun.Blocks {
		last := b.Last().Instr
		var next *Block
		if i+1 < len(fun.Blocks) {
			next = fun.Blocks[i+1]
		}
		addEdge := func(t *Block) {
			if t == nil {
				return
			}
			b.Succs = append(b.Succs, t)
			t.Preds = append(t.Preds, b)
		}
		switch {
		case last.Op == isa.OpJMP:
			addEdge(p.blockByAddr[last.Imm])
		case last.IsCondBranch():
			addEdge(p.blockByAddr[last.Imm])
			addEdge(next)
		case last.Op == isa.OpRET:
			b.IsRet = true
		case last.Op == isa.OpHALT:
			b.IsExit = true
		case last.Op == isa.OpCALL:
			b.CallTo = append(b.CallTo, last.Imm)
			addEdge(next)
		case last.Op == isa.OpCALLR:
			b.Indirect = true
			addEdge(next)
		case last.IsSyscall():
			b.Syscall = &SyscallSite{
				Addr:   b.Last().Addr,
				Block:  b,
				Authed: last.Op == isa.OpASYSCALL,
			}
			addEdge(next)
		default:
			addEdge(next)
		}
	}
}

// resolveSyscallNum scans backwards within the block for the MOVI that
// sets R0 before the trap.
func resolveSyscallNum(b *Block) {
	for i := len(b.Insns) - 2; i >= 0; i-- {
		in := b.Insns[i].Instr
		def, ok := in.Def()
		if !ok || def != isa.R0 {
			continue
		}
		if in.Op == isa.OpMOVI {
			b.Syscall.Num = uint16(in.Imm)
			b.Syscall.NumKnown = true
		}
		return // any other def of R0 leaves the number unknown
	}
}
