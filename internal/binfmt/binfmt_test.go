package binfmt

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func sampleFile() *File {
	text := make([]byte, 32)
	data := []byte("hello\x00world\x00")
	f := &File{
		Relocatable: true,
		Sections: []Section{
			{Name: SecText, Size: uint32(len(text)), Flags: FlagRead | FlagExec, Data: text},
			{Name: SecData, Size: uint32(len(data)), Flags: FlagRead | FlagWrite, Data: data},
			{Name: SecBSS, Size: 64, Flags: FlagRead | FlagWrite},
		},
		Symbols: []Symbol{
			{Name: "_start", Section: 0, Value: 0, Kind: SymFunc, Global: true},
			{Name: "msg", Section: 1, Value: 0, Kind: SymString, Global: false},
			{Name: "buf", Section: 2, Value: 0, Kind: SymObject, Global: true},
			{Name: "extern", Section: -1, Kind: SymFunc, Global: true},
		},
		Relocs: []Reloc{
			{Section: 0, Offset: 4, Sym: 1, Addend: 0},
			{Section: 0, Offset: 12, Sym: 2, Addend: 8},
		},
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	f.Layout()
	f.Authenticated = true
	f.ProgramID = 42
	f.Entry = 0x1000
	b, err := f.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	g, err := Read(b)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.Entry != f.Entry || g.ProgramID != 42 || !g.Authenticated || !g.Relocatable {
		t.Errorf("header mismatch: %+v", g)
	}
	if len(g.Sections) != 3 || len(g.Symbols) != 4 || len(g.Relocs) != 2 {
		t.Fatalf("counts mismatch: %d sections %d symbols %d relocs",
			len(g.Sections), len(g.Symbols), len(g.Relocs))
	}
	if g.Sections[1].Name != SecData || string(g.Sections[1].Data) != "hello\x00world\x00" {
		t.Errorf("data section mismatch: %+v", g.Sections[1])
	}
	if g.Symbols[3].Defined() {
		t.Error("extern symbol should be undefined")
	}
}

func TestLayoutAndRelocs(t *testing.T) {
	f := sampleFile()
	f.Layout()
	if f.Sections[0].Addr != TextBase {
		t.Errorf(".text at %#x, want %#x", f.Sections[0].Addr, TextBase)
	}
	if f.Sections[1].Addr%SectionAlign != 0 || f.Sections[1].Addr < f.Sections[0].End() {
		t.Errorf(".data at %#x (text ends %#x)", f.Sections[1].Addr, f.Sections[0].End())
	}
	if f.Entry != TextBase {
		t.Errorf("entry = %#x, want %#x (_start)", f.Entry, TextBase)
	}
	if err := f.ApplyRelocs(); err != nil {
		t.Fatalf("ApplyRelocs: %v", err)
	}
	msgAddr, _ := f.SymbolAddr("msg")
	if got := binary.LittleEndian.Uint32(f.Sections[0].Data[4:]); got != msgAddr {
		t.Errorf("reloc 0 patched %#x, want %#x", got, msgAddr)
	}
	bufAddr, _ := f.SymbolAddr("buf")
	if got := binary.LittleEndian.Uint32(f.Sections[0].Data[12:]); got != bufAddr+8 {
		t.Errorf("reloc 1 patched %#x, want %#x", got, bufAddr+8)
	}
}

func TestApplyRelocsErrors(t *testing.T) {
	f := sampleFile()
	f.Layout()
	f.Relocs = append(f.Relocs, Reloc{Section: 0, Offset: 1000, Sym: 0})
	if err := f.ApplyRelocs(); err == nil {
		t.Error("out-of-range reloc offset: want error")
	}
	f = sampleFile()
	f.Layout()
	f.Relocs[0].Sym = 3 // undefined symbol
	if err := f.ApplyRelocs(); err == nil {
		t.Error("reloc against undefined symbol: want error")
	}
}

func TestLookups(t *testing.T) {
	f := sampleFile()
	f.Layout()
	if f.Section(".text") == nil || f.Section(".nope") != nil {
		t.Error("Section lookup broken")
	}
	if f.SectionIndex(SecData) != 1 || f.SectionIndex("x") != -1 {
		t.Error("SectionIndex broken")
	}
	if s := f.SectionAt(f.Sections[1].Addr + 3); s == nil || s.Name != SecData {
		t.Error("SectionAt broken")
	}
	if f.SectionAt(0) != nil {
		t.Error("SectionAt(0) should be nil")
	}
	name, off := f.SymbolAt(TextBase + 8)
	if name != "_start" || off != 8 {
		t.Errorf("SymbolAt = %q+%d, want _start+8", name, off)
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	f := sampleFile()
	f.Layout()
	good, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("ELF\x7f....................")},
		{"truncated", good[:len(good)/2]},
		{"truncated header", good[:6]},
	}
	for _, tt := range tests {
		if _, err := Read(tt.b); err == nil {
			t.Errorf("%s: Read accepted corrupt input", tt.name)
		}
	}
	// Corrupt a section count to a huge value.
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[14:], 1<<30)
	if _, err := Read(bad); err == nil {
		t.Error("huge section count accepted")
	}
}

// Property: truncation at any point never panics and always errors.
func TestPropertyTruncationSafe(t *testing.T) {
	f := sampleFile()
	f.Layout()
	b, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(b); i++ {
		if _, err := Read(b[:i]); err == nil {
			t.Fatalf("Read of %d-byte prefix succeeded", i)
		}
	}
}

// Property: random byte mutations never panic the reader.
func TestPropertyMutationSafe(t *testing.T) {
	f := sampleFile()
	f.Layout()
	b, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	mut := func(pos uint, val byte) bool {
		c := append([]byte(nil), b...)
		c[pos%uint(len(c))] = val
		_, _ = Read(c) // must not panic
		return true
	}
	if err := quick.Check(mut, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
