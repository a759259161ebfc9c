package installer

import (
	"encoding/binary"
	"strings"
	"testing"

	"asc/internal/asm"
	"asc/internal/binfmt"
	"asc/internal/cfg"
	"asc/internal/isa"
	"asc/internal/libc"
	"asc/internal/linker"
	"asc/internal/mac"
	"asc/internal/policy"
	"asc/internal/sys"
	"asc/internal/vm"
)

var testKey = []byte("0123456789abcdef")

func linkProgram(t *testing.T, src string, os libc.OS) *binfmt.File {
	t.Helper()
	main, err := asm.Assemble("main.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	lib, err := libc.Objects(os)
	if err != nil {
		t.Fatalf("libc: %v", err)
	}
	exe, err := linker.Link([]*binfmt.File{main}, lib)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return exe
}

const helloSrc = `
        .text
        .global main
main:
        MOVI r1, msg
        CALL puts
        CALL getpid
        MOVI r0, 0
        RET
        .rodata
msg:    .asciz "hello\n"
`

func TestOptimizeInlinesAndRemovesStubs(t *testing.T) {
	exe := linkProgram(t, helloSrc, libc.Linux)
	opt, err := Optimize(exe)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	prog, err := cfg.Analyze(opt)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// The write stub was inlined into puts; getpid into main; the exit
	// call is inline in _start already. Stub functions are gone.
	for _, gone := range []string{"write", "getpid"} {
		if prog.FuncNamed(gone) != nil {
			t.Errorf("stub %q still present after inlining", gone)
		}
	}
	// Sites live in their callers now.
	var inPuts, inMain int
	for _, s := range prog.SyscallSites() {
		switch s.Block.Func.Name {
		case "puts":
			inPuts++
		case "main":
			inMain++
		}
	}
	if inPuts != 1 || inMain != 1 {
		t.Errorf("sites: puts=%d main=%d, want 1 and 1", inPuts, inMain)
	}
}

// miniKernel lets optimized binaries run without the full kernel.
type miniKernel struct {
	out []byte
}

func (k *miniKernel) Trap(c *vm.CPU, site uint32, authed bool) (uint32, bool, error) {
	switch uint16(c.Regs[isa.R0]) {
	case sys.SysExit:
		return 0, true, nil
	case sys.SysWrite:
		b, err := c.Mem.KernelRead(c.Regs[isa.R2], c.Regs[isa.R3])
		if err != nil {
			return 0, false, err
		}
		k.out = append(k.out, b...)
		return c.Regs[isa.R3], false, nil
	default:
		return 0, false, nil
	}
}

func run(t *testing.T, exe *binfmt.File) string {
	t.Helper()
	mem := vm.NewMemory(binfmt.TextBase, 1<<20)
	for _, s := range exe.Sections {
		if err := mem.KernelWrite(s.Addr, s.Data); err != nil {
			t.Fatalf("load %s: %v", s.Name, err)
		}
		if s.Size > 0 {
			mem.Map(vm.Segment{Name: s.Name, Start: s.Addr, End: s.End(), Perms: s.Flags})
		}
	}
	top := mem.Limit()
	mem.Map(vm.Segment{Name: "stack", Start: top - 65536, End: top, Perms: vm.PermRead | vm.PermWrite | vm.PermExec})
	k := &miniKernel{}
	c := vm.New(mem, k)
	c.PC = exe.Entry
	c.Regs[isa.SP] = top
	if err := c.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return string(k.out)
}

func TestOptimizedBinaryStillRuns(t *testing.T) {
	exe := linkProgram(t, helloSrc, libc.Linux)
	if got := run(t, exe); got != "hello\n" {
		t.Fatalf("original output = %q", got)
	}
	opt, err := Optimize(exe)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if got := run(t, opt); got != "hello\n" {
		t.Errorf("optimized output = %q", got)
	}
}

func install(t *testing.T, src string, opts Options) (*binfmt.File, *policy.ProgramPolicy, *Report) {
	t.Helper()
	exe := linkProgram(t, src, libc.Linux)
	if opts.Key == nil {
		opts.Key = testKey
	}
	out, pp, rep, err := Install(exe, "test", opts)
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	return out, pp, rep
}

const openSrc = `
        .text
        .global main
main:
        MOVI r1, path
        MOVI r2, 5
        MOVI r3, 0
        CALL open
        MOVI r0, 0
        RET
        .rodata
path:   .asciz "/dev/console"
`

func TestInstallBasics(t *testing.T) {
	out, pp, rep := install(t, openSrc, Options{})
	if !out.Authenticated || out.Relocatable || len(out.Relocs) != 0 {
		t.Errorf("flags: authenticated=%v relocatable=%v relocs=%d",
			out.Authenticated, out.Relocatable, len(out.Relocs))
	}
	prog, err := cfg.Analyze(out)
	if err != nil {
		t.Fatalf("Analyze output: %v", err)
	}
	// Every site is authenticated; none are plain SYSCALL.
	sites := prog.SyscallSites()
	if len(sites) != 2 { // open (in main) + exit (in _start)
		t.Fatalf("got %d sites: %+v", len(sites), sites)
	}
	for _, s := range sites {
		if !s.Authed {
			t.Errorf("site %#x (%s) not authenticated", s.Addr, sys.Name(s.Num))
		}
	}
	if rep.Sites != 2 || rep.DistinctCalls != 2 {
		t.Errorf("report: %+v", rep)
	}
	if len(pp.Sites) != 2 {
		t.Errorf("policy has %d sites", len(pp.Sites))
	}
	if auth := out.Section(binfmt.SecAuth); auth == nil || auth.Size == 0 {
		t.Error(".auth section empty")
	}
}

// decodeRecordFor finds the site's preamble and parses the auth record.
func decodeRecordFor(t *testing.T, out *binfmt.File, siteAddr uint32) policy.AuthRecord {
	t.Helper()
	text := out.Section(binfmt.SecText)
	pre, err := isa.Decode(text.Data[siteAddr-isa.InstrSize-text.Addr:])
	if err != nil || pre.Op != isa.OpMOVI || pre.Rd != isa.R6 {
		t.Fatalf("no preamble at %#x: %v %v", siteAddr-isa.InstrSize, pre, err)
	}
	auth := out.Section(binfmt.SecAuth)
	rec, err := policy.DecodeAuthRecord(auth.Data[pre.Imm-auth.Addr:])
	if err != nil {
		t.Fatalf("DecodeAuthRecord: %v", err)
	}
	return rec
}

func TestInstallRecordsVerify(t *testing.T) {
	out, pp, _ := install(t, openSrc, Options{})
	key, err := mac.New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	auth := out.Section(binfmt.SecAuth)
	for _, sp := range pp.Sites {
		rec := decodeRecordFor(t, out, sp.Site)
		if rec.BlockID != sp.BlockID {
			t.Errorf("%s: record block %d != policy block %d", sp.Name, rec.BlockID, sp.BlockID)
		}
		if !rec.Desc.CallSite() || !rec.Desc.ControlFlow() {
			t.Errorf("%s: descriptor %#x missing base bits", sp.Name, rec.Desc)
		}
		// Verify the predecessor-set AS from the image.
		psOff := rec.PredSetPtr - auth.Addr
		psLen := binary.LittleEndian.Uint32(auth.Data[psOff-20:])
		var psMAC mac.Tag
		copy(psMAC[:], auth.Data[psOff-16:psOff])
		if ok, _ := key.Verify(auth.Data[psOff:psOff+psLen], psMAC); !ok {
			t.Errorf("%s: predecessor-set AS does not verify", sp.Name)
		}
		ids, err := policy.DecodePredSet(auth.Data[psOff : psOff+psLen])
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(sp.Preds) {
			t.Errorf("%s: pred set %v != policy %v", sp.Name, ids, sp.Preds)
		}
		// Rebuild the encoded call as the kernel would for a compliant
		// execution and check the call MAC.
		var encArgs []policy.EncodedArg
		for i, a := range sp.Args {
			switch a.Class {
			case policy.ClassString:
				strAddr := findASAddr(t, out, key, a.Str)
				nul := append([]byte(a.Str), 0)
				tag, _ := key.Sum(nul)
				encArgs = append(encArgs, policy.EncodedArg{
					Index: i, IsString: true, Value: strAddr, Len: uint32(len(nul)), MAC: tag,
				})
			case policy.ClassImmediate:
				encArgs = append(encArgs, policy.EncodedArg{Index: i, Value: a.Values[0]})
			}
		}
		psTag, _ := key.Sum(auth.Data[psOff : psOff+psLen])
		enc := policy.CallEncoding{
			Num:     sp.Num,
			Site:    sp.Site,
			Desc:    rec.Desc,
			BlockID: rec.BlockID,
			Args:    encArgs,
			PredSet: &policy.ASView{Addr: rec.PredSetPtr, Len: psLen, MAC: psTag},
			LbPtr:   rec.LbPtr,
		}
		got, _ := enc.Sum(key)
		if !got.Equal(rec.CallMAC) {
			t.Errorf("%s: call MAC mismatch", sp.Name)
		}
	}
}

// findASAddr locates the AS copy of contents in .auth.
func findASAddr(t *testing.T, out *binfmt.File, key *mac.Keyed, contents string) uint32 {
	t.Helper()
	auth := out.Section(binfmt.SecAuth)
	want := append([]byte(contents), 0)
	for off := 0; off+policy.ASHeaderSize+len(want) <= len(auth.Data); off++ {
		l := binary.LittleEndian.Uint32(auth.Data[off:])
		if int(l) != len(want) {
			continue
		}
		strOff := off + policy.ASHeaderSize
		if strOff+int(l) > len(auth.Data) || string(auth.Data[strOff:strOff+int(l)]) != string(want) {
			continue
		}
		var tag mac.Tag
		copy(tag[:], auth.Data[off+4:])
		if ok, _ := key.Verify(want, tag); ok {
			return auth.Addr + uint32(strOff)
		}
	}
	t.Fatalf("AS for %q not found in .auth", contents)
	return 0
}

func TestStringArgumentRepointed(t *testing.T) {
	out, pp, _ := install(t, openSrc, Options{})
	key, _ := mac.New(testKey)
	asAddr := findASAddr(t, out, key, "/dev/console")

	// The open policy's first arg is a string.
	var openPol *policy.SitePolicy
	for _, sp := range pp.Sites {
		if sp.Name == "open" {
			openPol = sp
		}
	}
	if openPol == nil {
		t.Fatal("no open policy")
	}
	if openPol.Args[0].Class != policy.ClassString || openPol.Args[0].Str != "/dev/console" {
		t.Fatalf("open arg0 policy: %+v", openPol.Args[0])
	}
	// The defining MOVI in text now holds the AS address.
	text := out.Section(binfmt.SecText)
	found := false
	for off := 0; off+isa.InstrSize <= len(text.Data); off += isa.InstrSize {
		in, err := isa.Decode(text.Data[off:])
		if err != nil {
			continue
		}
		if in.Op == isa.OpMOVI && in.Rd == isa.R1 && in.Imm == asAddr {
			found = true
		}
	}
	if !found {
		t.Error("no MOVI r1 repointed at the AS copy")
	}
}

func TestUnknownNumberSiteReverted(t *testing.T) {
	src := `
        .text
        .global main
main:
        LOAD r0, [sp+0]
        SYSCALL
        MOVI r0, 0
        RET
`
	out, _, rep := install(t, src, Options{})
	if rep.UnknownSites != 1 {
		t.Errorf("UnknownSites = %d, want 1", rep.UnknownSites)
	}
	hasWarning := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "unknown number") || strings.Contains(w, "statically unknown") {
			hasWarning = true
		}
	}
	if !hasWarning {
		t.Errorf("no warning about unknown number: %v", rep.Warnings)
	}
	prog, err := cfg.Analyze(out)
	if err != nil {
		t.Fatal(err)
	}
	var plain int
	for _, s := range prog.SyscallSites() {
		if !s.Authed {
			plain++
		}
	}
	if plain != 1 {
		t.Errorf("plain SYSCALL sites = %d, want 1 (reverted)", plain)
	}
}

func TestFrankensteinUniqueIDs(t *testing.T) {
	_, pp, _ := install(t, openSrc, Options{ProgramID: 7})
	for _, sp := range pp.Sites {
		if sp.BlockID>>16 != 7 {
			t.Errorf("%s block ID %#x lacks program tag", sp.Name, sp.BlockID)
		}
		for _, p := range sp.Preds {
			if p != 0 && p>>16 != 7 {
				t.Errorf("%s pred %#x lacks program tag", sp.Name, p)
			}
		}
	}
	exe := linkProgram(t, openSrc, libc.Linux)
	if _, _, _, err := Install(exe, "x", Options{Key: testKey, ProgramID: 1 << 16}); err == nil {
		t.Error("out-of-range program ID accepted")
	}
}

func TestInstallRequiresRelocatable(t *testing.T) {
	out, _, _ := install(t, openSrc, Options{})
	if _, _, _, err := Install(out, "x", Options{Key: testKey}); err == nil {
		t.Error("installing a non-relocatable binary should fail")
	}
}

func TestGeneratePolicyOpenBSDGaps(t *testing.T) {
	src := `
        .text
        .global main
main:
        MOVI r1, 3
        CALL close
        MOVI r0, 0
        RET
`
	main, err := asm.Assemble("main.s", src)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := libc.Objects(libc.OpenBSD)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := linker.Link([]*binfmt.File{main}, lib)
	if err != nil {
		t.Fatal(err)
	}
	pp, rep, err := GeneratePolicy(exe, "closer", "openbsd")
	if err != nil {
		t.Fatalf("GeneratePolicy: %v", err)
	}
	// close must be absent from the policy; a warning must be present.
	for _, name := range pp.DistinctNames() {
		if name == "close" {
			t.Error("close in policy despite undecodable stub")
		}
	}
	if len(rep.Warnings) == 0 {
		t.Error("no disassembly warning reported")
	}
}

func TestReportArgStatistics(t *testing.T) {
	// open: path(String) + 2 immediates; read: fd unknown + bufout + len.
	src := `
        .text
        .global main
main:
        MOVI r1, path
        MOVI r2, 5
        MOVI r3, 0
        CALL open
        MOV r1, r0              ; fd from open: unknown statically
        MOVI r2, buf
        MOVI r3, 64
        CALL read
        MOVI r0, 0
        RET
        .rodata
path:   .asciz "/etc/passwd"
        .bss
buf:    .space 64
`
	_, pp, rep := install(t, src, Options{})
	// Sites: open, read, exit. Args: 3 + 3 + 1 = 7.
	if rep.Sites != 3 || rep.TotalArgs != 7 {
		t.Errorf("sites=%d args=%d, want 3 and 7", rep.Sites, rep.TotalArgs)
	}
	// o/p: read's buffer. auth: open path + flags + mode, read len, exit
	// code (from _start's MOVI r0,1... exit arg is r1=main's return: MOV
	// r1, r0 after CALL main -> unknown). So auth = path, 5, 0, 64 = 4.
	if rep.OutputArgs != 1 {
		t.Errorf("o/p = %d, want 1", rep.OutputArgs)
	}
	if rep.AuthArgs != 4 {
		t.Errorf("auth = %d, want 4", rep.AuthArgs)
	}
	// fds: read's fd argument is not constant.
	if rep.FDArgs != 1 {
		t.Errorf("fds = %d, want 1", rep.FDArgs)
	}
	_ = pp
}
