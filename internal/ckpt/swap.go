// swap.go seals individual memory pages for the kernel's authenticated
// swap device. Evicting a page is checkpointing in miniature: the frame
// binds the page bytes to its owner process, page index, and a
// kernel-held generation counter under a domain-separated CMAC, so a
// frame read back at fault-in time proves (1) the bytes are the ones
// written at eviction — a flipped bit fails the seal — and (2) they are
// the *latest* ones — replaying an older frame carries an older
// generation, which the kernel's counter rejects. The generation lives
// inside the sealed bytes but is trusted only by comparison against the
// kernel's in-memory (or checkpointed) expectation, mirroring the
// paper's in-kernel nonce argument.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"asc/internal/mac"
	"asc/internal/seal"
)

// swapPayloadSize is a swap frame's payload before the page data: owner,
// page, gen and data length. The frame is a seal.Swap blob: magic,
// version, that payload, the data, and a CMAC over everything before it.
const swapPayloadSize = 8 + 4 + 8 + 4

// Swap frame error classes. ErrSwapSeal covers integrity failures (bit
// flips, truncation of sealed bytes, wrong owner's frame); ErrSwapStale
// covers authenticity-of-freshness failures (a genuine frame that is not
// the latest for its slot — the replay case).
var (
	ErrSwapFrame = seal.ErrSwapFrame
	ErrSwapSeal  = seal.ErrSwapSeal
	ErrSwapStale = errors.New("ckpt: stale swap frame")
)

// SwapFrame is one sealed page at rest on the swap device.
type SwapFrame struct {
	Owner uint64 // owning process identity (PID is fine: frames die with the process)
	Page  uint32 // page index within the owner's arena
	Gen   uint64 // eviction generation; the kernel holds the expected value
	Data  []byte
}

// SealSwapFrame serializes and seals a frame. A nil key produces an
// unauthenticated frame (all-zero tag) for kernels running without a
// MAC key; OpenSwapFrame with a nil key skips the seal check
// symmetrically. Structure and generation checks still apply — an
// unauthenticated device detects accidents, not adversaries.
func SealSwapFrame(k *mac.Keyed, f *SwapFrame) []byte {
	b := seal.Swap.Begin(swapPayloadSize + len(f.Data))
	b = binary.LittleEndian.AppendUint64(b, f.Owner)
	b = binary.LittleEndian.AppendUint32(b, f.Page)
	b = binary.LittleEndian.AppendUint64(b, f.Gen)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Data)))
	return seal.Swap.Seal(k, append(b, f.Data...))
}

// OpenSwapFrame verifies blob as the frame for (owner, page) at exactly
// generation wantGen and returns it. Checks run in trust order: length,
// then the seal, then the header, then — over authenticated bytes only —
// the binding and freshness comparisons.
//
// The returned frame's Data aliases blob; callers that keep it must not
// reuse blob.
func OpenSwapFrame(k *mac.Keyed, owner uint64, page uint32, wantGen uint64, blob []byte) (*SwapFrame, error) {
	p, err := seal.Swap.Open(k, blob, swapPayloadSize)
	if err != nil {
		return nil, err
	}
	f := &SwapFrame{
		Owner: binary.LittleEndian.Uint64(p),
		Page:  binary.LittleEndian.Uint32(p[8:]),
		Gen:   binary.LittleEndian.Uint64(p[12:]),
	}
	if n := binary.LittleEndian.Uint32(p[20:]); uint64(swapPayloadSize)+uint64(n) != uint64(len(p)) {
		return nil, fmt.Errorf("%w: data length %d in %d-byte payload", ErrSwapFrame, n, len(p))
	}
	if f.Owner != owner || f.Page != page {
		// A genuine frame in the wrong slot is cross-slot replay.
		return nil, fmt.Errorf("%w: frame for owner %d page %d in slot owner %d page %d",
			ErrSwapStale, f.Owner, f.Page, owner, page)
	}
	if f.Gen != wantGen {
		return nil, fmt.Errorf("%w: generation %d, kernel expects %d", ErrSwapStale, f.Gen, wantGen)
	}
	f.Data = p[swapPayloadSize:len(p):len(p)]
	return f, nil
}
