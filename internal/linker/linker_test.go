package linker

import (
	"errors"
	"strings"
	"testing"

	"asc/internal/asm"
	"asc/internal/binfmt"
	"asc/internal/isa"
	"asc/internal/libc"
	"asc/internal/sys"
	"asc/internal/vm"
)

func assemble(t *testing.T, name, src string) *binfmt.File {
	t.Helper()
	f, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatalf("Assemble(%s): %v", name, err)
	}
	return f
}

func libObjects(t *testing.T) []*binfmt.File {
	t.Helper()
	objs, err := libc.Objects(libc.Linux)
	if err != nil {
		t.Fatalf("libc.Objects: %v", err)
	}
	return objs
}

func TestArchiveSemantics(t *testing.T) {
	main := assemble(t, "main.s", `
        .text
        .global main
main:
        MOVI r1, msg
        CALL puts
        MOVI r0, 0
        RET
        .rodata
msg:    .asciz "hello\n"
`)
	exe, err := Link([]*binfmt.File{main}, libObjects(t))
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	// Pulled: _start, main, puts, strlen, write (_start exits inline).
	for _, want := range []string{"_start", "main", "puts", "strlen", "write"} {
		if s := exe.Symbol(want); s == nil || !s.Defined() {
			t.Errorf("symbol %q missing from linked executable", want)
		}
	}
	// NOT pulled: open, socket, and the other ~80 stubs.
	for _, notWant := range []string{"open", "socket", "mkdir", "gets", "malloc"} {
		if s := exe.Symbol(notWant); s != nil {
			t.Errorf("symbol %q linked in but unreferenced", notWant)
		}
	}
	if !exe.Relocatable {
		t.Error("linked executable must stay relocatable for the installer")
	}
	if exe.Entry == 0 {
		t.Error("entry not set")
	}
}

func TestUndefinedSymbol(t *testing.T) {
	main := assemble(t, "main.s", `
        .text
        .global main
main:
        CALL no_such_function
        RET
`)
	_, err := Link([]*binfmt.File{main}, libObjects(t))
	if !errors.Is(err, ErrUndefined) {
		t.Fatalf("Link = %v, want ErrUndefined", err)
	}
	if !strings.Contains(err.Error(), "no_such_function") {
		t.Errorf("error does not name the symbol: %v", err)
	}
}

func TestDuplicateDefinition(t *testing.T) {
	a := assemble(t, "a.s", ".text\n.global main\nmain:\nRET\n")
	b := assemble(t, "b.s", ".text\n.global main\nmain:\nRET\n")
	start := assemble(t, "s.s", ".text\n.global _start\n_start:\nCALL main\nRET\n")
	_, err := Link([]*binfmt.File{start, a, b}, nil)
	if err == nil || !strings.Contains(err.Error(), "multiple definitions") {
		t.Fatalf("Link = %v, want duplicate definition error", err)
	}
}

func TestNoStart(t *testing.T) {
	a := assemble(t, "a.s", ".text\n.global main\nmain:\nRET\n")
	_, err := Link([]*binfmt.File{a}, nil)
	if err == nil || !strings.Contains(err.Error(), "_start") {
		t.Fatalf("Link = %v, want missing _start error", err)
	}
}

// miniKernel implements just write/exit so linked programs can run.
type miniKernel struct {
	out    []byte
	exited bool
	code   uint32
}

func (k *miniKernel) Trap(c *vm.CPU, site uint32, authed bool) (uint32, bool, error) {
	num := uint16(c.Regs[isa.R0])
	switch num {
	case sys.SysExit:
		k.exited = true
		k.code = c.Regs[isa.R1]
		return 0, true, nil
	case sys.SysWrite:
		buf, n := c.Regs[isa.R2], c.Regs[isa.R3]
		b, err := c.Mem.KernelRead(buf, n)
		if err != nil {
			return 0, false, err
		}
		k.out = append(k.out, b...)
		return n, false, nil
	default:
		return ^uint32(0), false, nil
	}
}

func runExe(t *testing.T, exe *binfmt.File) *miniKernel {
	t.Helper()
	mem := vm.NewMemory(binfmt.TextBase, 1<<20)
	for _, s := range exe.Sections {
		if err := mem.KernelWrite(s.Addr, s.Data); err != nil {
			t.Fatalf("load %s: %v", s.Name, err)
		}
		if s.Size == 0 {
			continue
		}
		mem.Map(vm.Segment{Name: s.Name, Start: s.Addr, End: s.End(), Perms: s.Flags})
	}
	top := mem.Limit()
	mem.Map(vm.Segment{Name: "stack", Start: top - 64*1024, End: top, Perms: vm.PermRead | vm.PermWrite | vm.PermExec})
	k := &miniKernel{}
	c := vm.New(mem, k)
	c.PC = exe.Entry
	c.Regs[isa.SP] = top
	if err := c.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return k
}

func TestHelloWorldEndToEnd(t *testing.T) {
	main := assemble(t, "main.s", `
        .text
        .global main
main:
        MOVI r1, msg
        CALL puts
        MOVI r0, 7
        RET
        .rodata
msg:    .asciz "hello, world\n"
`)
	exe, err := Link([]*binfmt.File{main}, libObjects(t))
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	k := runExe(t, exe)
	if string(k.out) != "hello, world\n" {
		t.Errorf("output = %q", k.out)
	}
	if !k.exited || k.code != 7 {
		t.Errorf("exit: %v code=%d, want exit(7)", k.exited, k.code)
	}
}

func TestPrintUintEndToEnd(t *testing.T) {
	main := assemble(t, "main.s", `
        .text
        .global main
main:
        MOVI r1, 40961
        CALL print_uint
        MOVI r1, 0
        CALL print_uint
        MOVI r0, 0
        RET
`)
	exe, err := Link([]*binfmt.File{main}, libObjects(t))
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	k := runExe(t, exe)
	if string(k.out) != "409610" {
		t.Errorf("output = %q, want 409610", k.out)
	}
}

func TestOpenBSDLibcLinks(t *testing.T) {
	objs, err := libc.Objects(libc.OpenBSD)
	if err != nil {
		t.Fatalf("libc.Objects(OpenBSD): %v", err)
	}
	main := assemble(t, "main.s", `
        .text
        .global main
main:
        MOVI r1, 0
        MOVI r2, 64
        MOVI r3, 1
        MOVI r4, 2
        MOVI r5, 0
        CALL mmap
        MOVI r1, 3
        CALL close
        MOVI r0, 0
        RET
`)
	exe, err := Link([]*binfmt.File{main}, objs)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	// The OpenBSD mmap stub must reference the indirect syscall.
	if s := exe.Symbol("mmap"); s == nil {
		t.Error("mmap not linked")
	}
	// Run it: close's hidden SYSCALL must still execute correctly.
	k := runExe(t, exe)
	if !k.exited {
		t.Error("program did not exit")
	}
}

func TestChunkAlignment(t *testing.T) {
	exe, err := Link([]*binfmt.File{assemble(t, "m.s", `
        .text
        .global _start
_start:
        RET
`)}, libObjects(t))
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	text := exe.Section(binfmt.SecText)
	if text.Addr%binfmt.SectionAlign != 0 {
		t.Errorf(".text addr %#x unaligned", text.Addr)
	}
	// All function symbols must sit at 8-byte instruction boundaries.
	for _, s := range exe.Symbols {
		if s.Kind == binfmt.SymFunc && s.Defined() && exe.Sections[s.Section].Name == binfmt.SecText {
			if addr, _ := exe.SymbolAddr(s.Name); addr%isa.InstrSize != 0 && s.Name != "close_impl" {
				t.Errorf("function %s at unaligned %#x", s.Name, addr)
			}
		}
	}
}
