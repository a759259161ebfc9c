// Package ckpt implements sealed process checkpoints: a deterministic
// serialization of a running guest's state — VM registers, memory
// segments with their store-generation counters, the fd/offset table,
// and the in-kernel memory-checker nonce — authenticated with a CMAC
// under the platform's policy MAC key.
//
// The trust argument mirrors the paper's online memory checker: state
// that leaves the kernel's hands (here, a checkpoint at rest) is never
// trusted on the way back in. The seal covers every serialized byte and
// binds two extra facts:
//
//   - a monotonically increasing checkpoint *epoch*, chosen and
//     remembered by the restorer (never read back from the blob), so a
//     stale checkpoint replayed into a newer slot fails the epoch check
//     even though its seal is genuine; and
//   - a *program tag* (CMAC over the installed executable's serialized
//     bytes), so a sealed checkpoint of process A cannot be restored
//     into a process running program B.
//
// A bit flip or torn write anywhere in the blob breaks the seal; a
// replay breaks the epoch; a cross-process swap breaks the program tag.
// Restore therefore either reproduces exactly the sealed state or fails
// with a classified error — it never executes unverified state.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"asc/internal/mac"
	"asc/internal/seal"
)

// Restore failure classes (see package seal, which documents each and
// maps it to its reason with seal.Reason).
var (
	ErrTruncated = seal.ErrTruncated
	ErrSeal      = seal.ErrSeal
	ErrMalformed = seal.ErrMalformed
	ErrEpoch     = seal.ErrEpoch
	ErrProgram   = seal.ErrProgram
	ErrState     = seal.ErrState
	// ErrUnsupported: the live process holds state the checkpoint format
	// cannot capture (open pipes or sockets).
	ErrUnsupported = errors.New("ckpt: process state not checkpointable")
)

// SegState is one memory segment: its protection range, its
// store-generation counter, and its contents as runs. A byte no run
// covers is zero.
type SegState struct {
	Name  string
	Start uint32
	End   uint32 // exclusive
	Perms uint8
	Gen   uint64
	Runs  []Run // in address order, disjoint, inside [Start, End)
}

// Run is a stretch of a segment's bytes that starts Off bytes after the
// segment's Start. Capture emits one per stretch of pages holding a
// nonzero byte.
type Run struct {
	Off  uint32
	Data []byte
}

// FDState is one open descriptor. Only disk files and console streams
// are checkpointable; pipes and sockets make Checkpoint fail with
// ErrUnsupported.
type FDState struct {
	Slot   uint32
	Kind   uint32 // kernel fdKind value
	Path   string // resolved path (file descriptors only)
	Offset uint32
}

// SigState is one installed signal handler.
type SigState struct {
	Num     uint32
	Handler uint32
}

// State is the complete checkpointable state of one process, quiesced at
// an instruction boundary (a superset of the trap boundary: the kernel
// updates CF state and counter atomically within a single trap, so any
// instruction boundary sees them consistent).
type State struct {
	Epoch   uint64
	ProgTag mac.Tag

	Name          string
	Authenticated bool
	Enforcement   uint32

	// CPU.
	Regs   []uint32
	PC     uint32
	Cycles uint64
	Halted bool

	// Address space.
	MemBase uint32
	MemSize uint32
	Brk     uint32
	Segs    []SegState

	// Verification state: the memory-checker nonce and the capability-
	// tracker nonce (the MACed values themselves live in segment data).
	Counter        uint64
	FDTrack        bool
	FDTrackCounter uint64

	// Process environment.
	Cwd        string
	Umask      uint32
	Stdin      []byte
	StdinPos   uint32
	Stdout     []byte
	NumFDSlots uint32
	FDs        []FDState
	Sigs       []SigState

	// Statistics (restored so supervision accounting stays continuous).
	SyscallCount       uint64
	VerifyCount        uint64
	VerifyAESBlocks    uint64
	DeniedCount        uint64
	AuditedCount       uint64
	CacheHits          uint64
	CacheMisses        uint64
	CacheInvalidations uint64

	// Paged virtual memory. Paged records whether the process ran on a
	// demand-paged kernel; the remaining fields describe its mmap-arena
	// page table and the swap residue of evicted pages. The arena's
	// *resident* contents travel as runs of the ordinary segment capture
	// (evicted pages are zero-scrubbed, so they yield none); SwapPages
	// carries the evicted pages' plaintext (verified against their sealed
	// frames at capture time) so a restore can re-seal them under the
	// restored process's identity.
	Paged     bool
	PageBase  uint32
	PageHand  uint32
	PageFlags []byte   // one vm.PageFlags byte per arena page
	PageGens  []uint64 // per-page swap generation, parallel to PageFlags
	SwapPages []SwapPageState
}

// SwapPageState is one evicted page's verified plaintext.
type SwapPageState struct {
	Index uint32
	Data  []byte
}

// ProgramTag computes the program-binding tag over an executable's
// deterministic serialization.
func ProgramTag(k *mac.Keyed, exeBytes []byte) mac.Tag {
	return seal.Program.Tag(k, exeBytes)
}

// Seal serializes the state and seals it in the seal.Checkpoint domain:
// magic, version, epoch, the encoded State, and a trailing CMAC over
// everything before it.
func Seal(k *mac.Keyed, s *State) []byte {
	e := seal.Enc{B: seal.Checkpoint.Begin(0)}
	encodeState(&e, s)
	return seal.Checkpoint.Seal(k, e.B)
}

// Open verifies the seal and decodes the state. The checks run in trust
// order: length, then seal, then (only over authenticated bytes) the
// header and the payload decode.
func Open(k *mac.Keyed, blob []byte) (*State, error) {
	p, err := seal.Checkpoint.Open(k, blob, 8) // at least the epoch
	if err != nil {
		return nil, err
	}
	return decodeState(p)
}

// SealedEpoch reads the epoch from a blob's header without verifying the
// seal. It exists for tooling (picking a restore slot); trust decisions
// must go through Open plus the caller's own epoch expectation.
func SealedEpoch(blob []byte) (uint64, error) {
	if len(blob) < seal.HeaderSize+8 {
		return 0, fmt.Errorf("%w (%d bytes)", ErrTruncated, len(blob))
	}
	p, err := seal.Checkpoint.SealedHeader(blob)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

// encodeState appends the payload after the header: everything the seal
// covers.
func encodeState(e *seal.Enc, s *State) {
	e.U64(s.Epoch)
	e.Raw(s.ProgTag[:])

	e.Str(s.Name)
	e.Bool(s.Authenticated)
	e.U32(s.Enforcement)

	e.U32(uint32(len(s.Regs)))
	for _, r := range s.Regs {
		e.U32(r)
	}
	e.U32(s.PC)
	e.U64(s.Cycles)
	e.Bool(s.Halted)

	e.U32(s.MemBase)
	e.U32(s.MemSize)
	e.U32(s.Brk)
	e.U32(uint32(len(s.Segs)))
	for i := range s.Segs {
		sg := &s.Segs[i]
		e.Str(sg.Name)
		e.U32(sg.Start)
		e.U32(sg.End)
		e.U8(sg.Perms)
		e.U64(sg.Gen)
		e.U32(uint32(len(sg.Runs)))
		for _, r := range sg.Runs {
			e.U32(r.Off)
			e.Bytes(r.Data)
		}
	}

	e.U64(s.Counter)
	e.Bool(s.FDTrack)
	e.U64(s.FDTrackCounter)

	e.Str(s.Cwd)
	e.U32(s.Umask)
	e.Bytes(s.Stdin)
	e.U32(s.StdinPos)
	e.Bytes(s.Stdout)
	e.U32(s.NumFDSlots)
	e.U32(uint32(len(s.FDs)))
	for i := range s.FDs {
		fd := &s.FDs[i]
		e.U32(fd.Slot)
		e.U32(fd.Kind)
		e.Str(fd.Path)
		e.U32(fd.Offset)
	}
	e.U32(uint32(len(s.Sigs)))
	for _, sg := range s.Sigs {
		e.U32(sg.Num)
		e.U32(sg.Handler)
	}

	for _, v := range []uint64{
		s.SyscallCount, s.VerifyCount, s.VerifyAESBlocks,
		s.DeniedCount, s.AuditedCount,
		s.CacheHits, s.CacheMisses, s.CacheInvalidations,
	} {
		e.U64(v)
	}

	e.Bool(s.Paged)
	if s.Paged {
		e.U32(s.PageBase)
		e.U32(s.PageHand)
		e.Bytes(s.PageFlags)
		e.U32(uint32(len(s.PageGens)))
		for _, g := range s.PageGens {
			e.U64(g)
		}
		e.U32(uint32(len(s.SwapPages)))
		for i := range s.SwapPages {
			e.U32(s.SwapPages[i].Index)
			e.Bytes(s.SwapPages[i].Data)
		}
	}
}

// DecodeState parses an *unsealed* header and payload (a blob without
// its trailing MAC). It performs no authentication — callers must verify
// the seal first (Open does) — but is safe on arbitrary input: every
// length is bounds-checked against the remaining bytes before any
// allocation, so the fuzzer can feed it garbage without panics or memory
// blowups.
func DecodeState(b []byte) (*State, error) {
	p, err := seal.Checkpoint.SealedHeader(b)
	if err != nil {
		return nil, err
	}
	return decodeState(p)
}

func decodeState(b []byte) (*State, error) {
	d := seal.NewDec(b)
	var s State
	s.Epoch = d.U64()
	copy(s.ProgTag[:], d.Raw(mac.Size))

	s.Name = d.Str()
	s.Authenticated = d.Bool()
	s.Enforcement = d.U32()

	nregs := d.Count(4)
	s.Regs = make([]uint32, 0, nregs)
	for i := 0; i < nregs; i++ {
		s.Regs = append(s.Regs, d.U32())
	}
	s.PC = d.U32()
	s.Cycles = d.U64()
	s.Halted = d.Bool()

	s.MemBase = d.U32()
	s.MemSize = d.U32()
	s.Brk = d.U32()
	nsegs := d.Count(25)
	for i := 0; i < nsegs && !d.Failed(); i++ {
		var sg SegState
		sg.Name = d.Str()
		sg.Start = d.U32()
		sg.End = d.U32()
		sg.Perms = d.U8()
		sg.Gen = d.U64()
		nruns := d.Count(8)
		var next uint64 // the lowest offset the next run may start at
		for j := 0; j < nruns && !d.Failed(); j++ {
			r := Run{Off: d.U32(), Data: d.Bytes()}
			end := uint64(r.Off) + uint64(len(r.Data))
			switch {
			case d.Failed():
			case uint64(r.Off) < next:
				return nil, fmt.Errorf("%w: segment %s: run at +%#x overlaps or precedes the run before it",
					ErrMalformed, sg.Name, r.Off)
			case sg.End < sg.Start || end > uint64(sg.End-sg.Start):
				return nil, fmt.Errorf("%w: segment %s: run [+%#x,+%#x) passes the segment's end",
					ErrMalformed, sg.Name, r.Off, end)
			}
			next = end
			sg.Runs = append(sg.Runs, r)
		}
		s.Segs = append(s.Segs, sg)
	}

	s.Counter = d.U64()
	s.FDTrack = d.Bool()
	s.FDTrackCounter = d.U64()

	s.Cwd = d.Str()
	s.Umask = d.U32()
	s.Stdin = d.Bytes()
	s.StdinPos = d.U32()
	s.Stdout = d.Bytes()
	s.NumFDSlots = d.U32()
	nfds := d.Count(16)
	for i := 0; i < nfds && !d.Failed(); i++ {
		var fd FDState
		fd.Slot = d.U32()
		fd.Kind = d.U32()
		fd.Path = d.Str()
		fd.Offset = d.U32()
		s.FDs = append(s.FDs, fd)
	}
	nsigs := d.Count(8)
	for i := 0; i < nsigs && !d.Failed(); i++ {
		s.Sigs = append(s.Sigs, SigState{Num: d.U32(), Handler: d.U32()})
	}

	for _, p := range []*uint64{
		&s.SyscallCount, &s.VerifyCount, &s.VerifyAESBlocks,
		&s.DeniedCount, &s.AuditedCount,
		&s.CacheHits, &s.CacheMisses, &s.CacheInvalidations,
	} {
		*p = d.U64()
	}

	s.Paged = d.Bool()
	if s.Paged {
		s.PageBase = d.U32()
		s.PageHand = d.U32()
		s.PageFlags = d.Bytes()
		ngens := d.Count(8)
		if !d.Failed() && ngens != len(s.PageFlags) {
			return nil, fmt.Errorf("%w: page generation count %d for %d pages",
				ErrMalformed, ngens, len(s.PageFlags))
		}
		s.PageGens = make([]uint64, 0, ngens)
		for i := 0; i < ngens; i++ {
			s.PageGens = append(s.PageGens, d.U64())
		}
		nswap := d.Count(8)
		for i := 0; i < nswap && !d.Failed(); i++ {
			var sp SwapPageState
			sp.Index = d.U32()
			sp.Data = d.Bytes()
			s.SwapPages = append(s.SwapPages, sp)
		}
	}
	if err := d.End(ErrMalformed); err != nil {
		return nil, err
	}
	return &s, nil
}
