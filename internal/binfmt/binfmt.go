// Package binfmt implements SELF, the Simple Executable and Linkable Format
// of the simulated platform.
//
// PLTO, the binary rewriter the paper builds its trusted installer on,
// requires relocatable binaries: every absolute address embedded in code or
// data is described by a relocation entry, so that analyses can move code
// and data and fix the addresses up afterwards. SELF reproduces exactly
// that property. The assembler emits relocatable objects, the linker emits
// relocatable executables, and the installer emits non-relocatable
// authenticated executables (policies embed absolute addresses, so the
// result can no longer be relocated — matching Section 4.1 of the paper).
package binfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Magic identifies a SELF file.
const Magic = "SELF"

// Version is the current format version.
const Version = 1

// Section permission flags.
const (
	FlagRead  uint8 = 1 << iota // readable
	FlagWrite                   // writable
	FlagExec                    // executable
)

// Well-known section names.
const (
	SecText   = ".text"
	SecROData = ".rodata"
	SecData   = ".data"
	SecAuth   = ".auth" // authenticated strings, call MACs, policy state
	SecBSS    = ".bss"
)

// TextBase is the address where the first section (.text) is laid out.
const TextBase = 0x1000

// SectionAlign is the alignment of section start addresses.
const SectionAlign = 16

// Limits protecting the reader from corrupt or hostile inputs.
const (
	maxSections    = 64
	maxSectionSize = 64 << 20
	maxSymbols     = 1 << 20
	maxRelocs      = 1 << 22
	maxNameLen     = 4096
)

// ErrBadMagic is returned when a file does not start with the SELF magic.
var ErrBadMagic = errors.New("binfmt: bad magic")

// SymKind classifies a symbol.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc   SymKind = iota + 1 // function entry point
	SymObject                    // data object
	SymString                    // NUL-terminated string constant (from .asciz)
	SymLabel                     // local code label (branch target)
)

func (k SymKind) String() string {
	switch k {
	case SymFunc:
		return "func"
	case SymObject:
		return "object"
	case SymString:
		return "string"
	case SymLabel:
		return "label"
	default:
		return fmt.Sprintf("SymKind(%d)", uint8(k))
	}
}

// Section is a contiguous region of the program image.
type Section struct {
	Name  string
	Addr  uint32 // assigned by Layout; 0 in unlaid-out objects
	Size  uint32 // equals len(Data) except for .bss, whose Data is empty
	Flags uint8
	Data  []byte
}

// End returns the address one past the section's last byte.
func (s *Section) End() uint32 { return s.Addr + s.Size }

// Contains reports whether addr falls within the section.
func (s *Section) Contains(addr uint32) bool {
	return addr >= s.Addr && addr < s.End()
}

// Symbol names a location within a section (or an undefined reference).
type Symbol struct {
	Name    string
	Section int32  // index into Sections; -1 if undefined
	Value   uint32 // offset within the section
	Kind    SymKind
	Global  bool
}

// Defined reports whether the symbol refers to a location in this file.
func (s *Symbol) Defined() bool { return s.Section >= 0 }

// Reloc records that the 4 bytes at Offset within Section hold an absolute
// address that must equal the address of Sym plus Addend.
type Reloc struct {
	Section int32 // section containing the patched bytes
	Offset  uint32
	Sym     int32 // index into Symbols
	Addend  int32
}

// File is a parsed SELF object, executable, or authenticated executable.
type File struct {
	Entry         uint32 // entry point address (executables only)
	Relocatable   bool   // relocation info is complete; rewriting is possible
	Authenticated bool   // system calls have been replaced by authenticated calls
	ProgramID     uint32 // unique program ID (Frankenstein countermeasure, §5.5)
	Sections      []Section
	Symbols       []Symbol
	Relocs        []Reloc
}

// Section returns the section with the given name, or nil.
func (f *File) Section(name string) *Section {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i]
		}
	}
	return nil
}

// SectionIndex returns the index of the named section, or -1.
func (f *File) SectionIndex(name string) int32 {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

// Symbol returns the first symbol with the given name, or nil.
func (f *File) Symbol(name string) *Symbol {
	for i := range f.Symbols {
		if f.Symbols[i].Name == name {
			return &f.Symbols[i]
		}
	}
	return nil
}

// SymbolAddr returns the absolute address of the named symbol. The file
// must be laid out. It reports whether the symbol exists and is defined.
func (f *File) SymbolAddr(name string) (uint32, bool) {
	s := f.Symbol(name)
	if s == nil || !s.Defined() {
		return 0, false
	}
	return f.Sections[s.Section].Addr + s.Value, true
}

// AddrOf returns the absolute address of symbol index i.
func (f *File) AddrOf(i int32) (uint32, error) {
	if i < 0 || int(i) >= len(f.Symbols) {
		return 0, fmt.Errorf("binfmt: symbol index %d out of range", i)
	}
	s := &f.Symbols[i]
	if !s.Defined() {
		return 0, fmt.Errorf("binfmt: symbol %q undefined", s.Name)
	}
	return f.Sections[s.Section].Addr + s.Value, nil
}

// SectionAt returns the section containing addr, or nil.
func (f *File) SectionAt(addr uint32) *Section {
	for i := range f.Sections {
		if f.Sections[i].Contains(addr) {
			return &f.Sections[i]
		}
	}
	return nil
}

// SymbolAt returns the name of the defined symbol whose address most
// closely precedes (or equals) addr, along with the offset from it. It is
// a debugging aid for disassembly and audit logs.
func (f *File) SymbolAt(addr uint32) (string, uint32) {
	bestName, bestAddr, found := "", uint32(0), false
	for i := range f.Symbols {
		s := &f.Symbols[i]
		if !s.Defined() || s.Kind == SymLabel {
			continue
		}
		a := f.Sections[s.Section].Addr + s.Value
		if a <= addr && (!found || a > bestAddr) {
			bestName, bestAddr, found = s.Name, a, true
		}
	}
	if !found {
		return "", 0
	}
	return bestName, addr - bestAddr
}

// align rounds v up to the next multiple of a (a must be a power of two).
func align(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

// Layout assigns addresses to all sections, in their current order,
// starting at TextBase, and resolves the entry point from the _start
// symbol if present.
func (f *File) Layout() {
	addr := uint32(TextBase)
	for i := range f.Sections {
		addr = align(addr, SectionAlign)
		f.Sections[i].Addr = addr
		addr += f.Sections[i].Size
	}
	if e, ok := f.SymbolAddr("_start"); ok {
		f.Entry = e
	}
}

// ApplyRelocs patches every relocation site with the current address of
// its target symbol. The file must be laid out first.
func (f *File) ApplyRelocs() error {
	for ri, r := range f.Relocs {
		if r.Section < 0 || int(r.Section) >= len(f.Sections) {
			return fmt.Errorf("binfmt: reloc %d: bad section %d", ri, r.Section)
		}
		sec := &f.Sections[r.Section]
		if sec.Name == SecBSS {
			return fmt.Errorf("binfmt: reloc %d targets .bss", ri)
		}
		if int(r.Offset)+4 > len(sec.Data) {
			return fmt.Errorf("binfmt: reloc %d: offset %d out of range for %s", ri, r.Offset, sec.Name)
		}
		addr, err := f.AddrOf(r.Sym)
		if err != nil {
			return fmt.Errorf("binfmt: reloc %d: %w", ri, err)
		}
		binary.LittleEndian.PutUint32(sec.Data[r.Offset:], addr+uint32(r.Addend))
	}
	return nil
}

// SortRelocs orders relocations by (section, offset) for deterministic
// output.
func (f *File) SortRelocs() {
	sort.Slice(f.Relocs, func(i, j int) bool {
		a, b := f.Relocs[i], f.Relocs[j]
		if a.Section != b.Section {
			return a.Section < b.Section
		}
		return a.Offset < b.Offset
	})
}

// --- serialization ---

type countWriter struct {
	w   io.Writer
	err error
}

func (cw *countWriter) u8(v uint8) { cw.bytes([]byte{v}) }
func (cw *countWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.bytes(b[:])
}
func (cw *countWriter) str(s string) { cw.u32(uint32(len(s))); cw.bytes([]byte(s)) }
func (cw *countWriter) bytes(b []byte) {
	if cw.err != nil {
		return
	}
	_, cw.err = cw.w.Write(b)
}

// Write serializes the file.
func (f *File) Write(w io.Writer) error {
	cw := &countWriter{w: w}
	cw.bytes([]byte(Magic))
	cw.u8(Version)
	var flags uint8
	if f.Relocatable {
		flags |= 1
	}
	if f.Authenticated {
		flags |= 2
	}
	cw.u8(flags)
	cw.u32(f.Entry)
	cw.u32(f.ProgramID)
	cw.u32(uint32(len(f.Sections)))
	for i := range f.Sections {
		s := &f.Sections[i]
		cw.str(s.Name)
		cw.u32(s.Addr)
		cw.u32(s.Size)
		cw.u8(s.Flags)
		cw.u32(uint32(len(s.Data)))
		cw.bytes(s.Data)
	}
	cw.u32(uint32(len(f.Symbols)))
	for i := range f.Symbols {
		s := &f.Symbols[i]
		cw.str(s.Name)
		cw.u32(uint32(s.Section))
		cw.u32(s.Value)
		cw.u8(uint8(s.Kind))
		if s.Global {
			cw.u8(1)
		} else {
			cw.u8(0)
		}
	}
	cw.u32(uint32(len(f.Relocs)))
	for _, r := range f.Relocs {
		cw.u32(uint32(r.Section))
		cw.u32(r.Offset)
		cw.u32(uint32(r.Sym))
		cw.u32(uint32(r.Addend))
	}
	return cw.err
}

// Bytes serializes the file into a new byte slice.
func (f *File) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("binfmt: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated file (need %d bytes at offset %d)", n, r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) str() string {
	n := r.u32()
	if n > maxNameLen {
		r.fail("name too long (%d)", n)
		return ""
	}
	return string(r.take(int(n)))
}

// Read parses a SELF file from b.
func Read(b []byte) (*File, error) {
	r := &reader{b: b}
	if string(r.take(4)) != Magic {
		return nil, ErrBadMagic
	}
	if v := r.u8(); v != Version && r.err == nil {
		return nil, fmt.Errorf("binfmt: unsupported version %d", v)
	}
	flags := r.u8()
	f := &File{
		Relocatable:   flags&1 != 0,
		Authenticated: flags&2 != 0,
	}
	f.Entry = r.u32()
	f.ProgramID = r.u32()

	nsec := r.u32()
	if nsec > maxSections {
		r.fail("too many sections (%d)", nsec)
	}
	for i := uint32(0); i < nsec && r.err == nil; i++ {
		var s Section
		s.Name = r.str()
		s.Addr = r.u32()
		s.Size = r.u32()
		s.Flags = r.u8()
		n := r.u32()
		if n > maxSectionSize || s.Size > maxSectionSize {
			r.fail("section %q too large", s.Name)
			break
		}
		s.Data = append([]byte(nil), r.take(int(n))...)
		f.Sections = append(f.Sections, s)
	}

	nsym := r.u32()
	if nsym > maxSymbols {
		r.fail("too many symbols (%d)", nsym)
	}
	for i := uint32(0); i < nsym && r.err == nil; i++ {
		var s Symbol
		s.Name = r.str()
		s.Section = int32(r.u32())
		s.Value = r.u32()
		s.Kind = SymKind(r.u8())
		s.Global = r.u8() != 0
		if s.Section >= int32(len(f.Sections)) {
			r.fail("symbol %q: section index %d out of range", s.Name, s.Section)
			break
		}
		f.Symbols = append(f.Symbols, s)
	}

	nrel := r.u32()
	if nrel > maxRelocs {
		r.fail("too many relocs (%d)", nrel)
	}
	for i := uint32(0); i < nrel && r.err == nil; i++ {
		var rel Reloc
		rel.Section = int32(r.u32())
		rel.Offset = r.u32()
		rel.Sym = int32(r.u32())
		rel.Addend = int32(r.u32())
		if rel.Section < 0 || rel.Section >= int32(len(f.Sections)) {
			r.fail("reloc %d: section index out of range", i)
			break
		}
		if rel.Sym < 0 || rel.Sym >= int32(len(f.Symbols)) {
			r.fail("reloc %d: symbol index out of range", i)
			break
		}
		f.Relocs = append(f.Relocs, rel)
	}
	if r.err != nil {
		return nil, r.err
	}
	return f, nil
}
