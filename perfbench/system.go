package main

import (
	"fmt"
	"time"

	"asc/internal/asm"
	"asc/internal/binfmt"
	"asc/internal/core"
	"asc/internal/installer"
	"asc/internal/isa"
	"asc/internal/kernel"
	"asc/internal/libc"
	"asc/internal/linker"
	"asc/internal/workload"
)

// program is one corpus binary in its two forms.
type program struct {
	name string
	// orig is the optimized, uninstalled binary the permissive baseline
	// runs; auth is the installer's authenticated binary.
	orig, auth *binfmt.File
	// kinds classifies every instruction of auth's text (see decodeText);
	// nil until a traced run needs it.
	kinds    []stepKind
	textBase uint32
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	build, install, boot time.Duration
}

func (t setupTimes) total() time.Duration { return t.build + t.install + t.boot }

// buildCorpus assembles every source, links it against the Linux libc,
// and runs the installer over it: set-up short of booting a System.
func buildCorpus(srcs []source, key []byte) ([]*program, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	lib, err := libc.Objects(libc.Linux)
	if err != nil {
		return nil, t, err
	}
	exes := make([]*binfmt.File, len(srcs))
	for i, s := range srcs {
		obj, err := asm.Assemble(s.name+".s", s.text)
		if err != nil {
			return nil, t, fmt.Errorf("assemble %s: %w", s.name, err)
		}
		if exes[i], err = linker.Link([]*binfmt.File{obj}, lib); err != nil {
			return nil, t, fmt.Errorf("link %s: %w", s.name, err)
		}
	}
	t.build = time.Since(start)

	progs := make([]*program, len(srcs))
	for i, s := range srcs {
		// The optimized binary is the permissive baseline's, not set-up a
		// user pays, so it stays off the clock.
		orig, err := installer.Optimize(exes[i])
		if err != nil {
			return nil, t, fmt.Errorf("optimize %s: %w", s.name, err)
		}
		start := time.Now()
		auth, _, _, err := installer.Install(exes[i], s.name, installer.Options{Key: key})
		t.install += time.Since(start)
		if err != nil {
			return nil, t, fmt.Errorf("install %s: %w", s.name, err)
		}
		progs[i] = &program{name: s.name, orig: orig, auth: auth}
	}
	return progs, t, nil
}

// inputBlob is the content of every /data input file, byte for byte what
// the bench package's kernels serve, so modeled cycles match its tables.
var inputBlob = func() []byte {
	b := make([]byte, 8192)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}()

// boot builds one System with the input files the corpus reads.
func boot(key []byte, permissive bool, opts []kernel.Option) (*core.System, error) {
	s, err := core.NewSystem(core.Config{Key: key, Permissive: permissive, KernelOptions: opts})
	if err != nil {
		return nil, err
	}
	for _, spec := range workload.PerfSuite() {
		if err := s.FS.WriteFile("/data/"+spec.Name+".in", inputBlob, 0o644); err != nil {
			return nil, err
		}
	}
	if err := s.FS.WriteFile("/data/micro.in", inputBlob, 0o644); err != nil {
		return nil, err
	}
	return s, nil
}

// stepKind classifies an instruction for the traced run.
type stepKind uint8

const (
	stepPlain stepKind = iota
	stepTrap           // SYSCALL or ASYSCALL
	stepLoad           // LOAD or LOADB
	stepStore          // STORE or STOREB
)

// decodeText classifies every instruction of the authenticated binary's
// text with isa.Decode, so the traced run knows before each Step whether
// it is a trap site or a memory access.
func (pr *program) decodeText() {
	text := pr.auth.Section(binfmt.SecText)
	if text == nil {
		return
	}
	pr.textBase = text.Addr
	pr.kinds = make([]stepKind, len(text.Data)/isa.InstrSize)
	for i := range pr.kinds {
		in, err := isa.Decode(text.Data[i*isa.InstrSize:])
		if err != nil {
			continue // data in text faults at run time, as it would untraced
		}
		switch in.Op {
		case isa.OpSYSCALL, isa.OpASYSCALL:
			pr.kinds[i] = stepTrap
		case isa.OpLOAD, isa.OpLOADB:
			pr.kinds[i] = stepLoad
		case isa.OpSTORE, isa.OpSTOREB:
			pr.kinds[i] = stepStore
		}
	}
}

func (pr *program) kindAt(pc uint32) stepKind {
	off := pc - pr.textBase
	if pc < pr.textBase || off%isa.InstrSize != 0 || int(off/isa.InstrSize) >= len(pr.kinds) {
		return stepPlain
	}
	return pr.kinds[off/isa.InstrSize]
}
