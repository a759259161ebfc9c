// Package seal is the one authenticated-framing primitive behind every
// sealed format at rest: checkpoints, program tags, migration envelopes,
// swap frames, and the director's write-ahead log and anchor.
//
// Each format is a Domain. Every MAC input starts with the domain's
// prefix, so a tag computed in one domain never verifies in another, and
// every sealed blob is
//
//	magic ‖ version ‖ payload ‖ CMAC(prefix ‖ magic ‖ version ‖ payload)
//
// under the platform's AES-CMAC key (package mac). Open checks a blob in
// one trust order — length, tag, then magic and version — so a format's
// decoder only ever sees authenticated bytes. The WAL chains its records
// instead: each record's tag covers its predecessor's tag (AppendChained,
// OpenChained), and the log file starts with the WAL domain's header.
package seal

import (
	"encoding/binary"
	"fmt"

	"asc/internal/mac"
)

// Domain is one use of the MAC key: a domain-separation prefix, the
// magic and version that start its blobs, and the failure class Open
// reports for a blob too short to hold header and tag, for a tag that
// does not verify, and for an authenticated header of the wrong magic or
// version.
type Domain struct {
	prefix  []byte
	magic   string
	version uint32

	short, forged, header error
}

// The six domains.
var (
	// Checkpoint seals a process checkpoint (package ckpt); version 2
	// added the paged-memory section, version 3 stored each segment as
	// runs of its nonzero pages, and version 4 drops the lengths of the
	// two memory regions that version 3 also carried.
	Checkpoint = Domain{[]byte("asc/ckpt/seal/v1\x00"), "ASCK", 4, ErrTruncated, ErrSeal, ErrMalformed}
	// Program tags an installed executable's serialized bytes; it has no
	// blob, only Tag.
	Program = Domain{prefix: []byte("asc/ckpt/prog/v1\x00")}
	// Migration seals the envelope a checkpoint crosses nodes in.
	Migration = Domain{[]byte("asc/ckpt/mig/v1\x00"), "ASCM", 1, ErrTruncated, ErrSeal, ErrMalformed}
	// Swap seals one evicted page on the authenticated swap device.
	Swap = Domain{[]byte("asc/swap/seal/v1\x00"), "ASSW", 1, ErrSwapFrame, ErrSwapSeal, ErrSwapFrame}
	// WAL chains the director's log records; its header starts the log.
	WAL = Domain{[]byte("asc/dir/wal/v1\x00"), "ASCW", 1, ErrTamper, ErrTamper, ErrTamper}
	// Anchor seals the WAL's freshness pointer.
	Anchor = Domain{[]byte("asc/dir/anchor/v1\x00"), "ASCA", 1, ErrTamper, ErrTamper, ErrTamper}
)

// HeaderSize is the length of a domain header: magic and version.
const HeaderSize = 4 + 4

// Header appends d's magic and version to b.
func (d *Domain) Header(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(append(b, d.magic...), d.version)
}

// SealedHeader checks the magic and version at the front of blob, without
// authenticating anything, and returns the bytes after them. Tooling uses
// it to read a blob's routing fields; trust decisions go through Open.
func (d *Domain) SealedHeader(blob []byte) ([]byte, error) {
	if len(blob) < HeaderSize {
		return nil, fmt.Errorf("%w (%d bytes)", d.short, len(blob))
	}
	if string(blob[:4]) != d.magic {
		return nil, fmt.Errorf("%w: bad magic", d.header)
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != d.version {
		return nil, fmt.Errorf("%w: version %d", d.header, v)
	}
	return blob[HeaderSize:], nil
}

// Begin returns an empty sealing buffer: d's prefix and header, with room
// for n payload bytes and the tag. Append the payload, then pass the
// buffer to Seal; the MAC input and the blob share this one allocation.
func (d *Domain) Begin(n int) []byte {
	b := make([]byte, 0, len(d.prefix)+HeaderSize+n+mac.Size)
	return d.Header(append(b, d.prefix...))
}

// Seal tags buf — a Begin buffer with its payload appended — and returns
// the sealed blob: header, payload and tag. A nil key writes an all-zero
// tag; only the swap device of a kernel without a MAC key uses one.
func (d *Domain) Seal(k *mac.Keyed, buf []byte) []byte {
	var tag mac.Tag
	if k != nil {
		tag, _ = k.Sum(buf)
	}
	return append(buf, tag[:]...)[len(d.prefix):]
}

// Open authenticates blob as sealed in d and returns its payload, which
// aliases blob. The checks run in trust order: the length (a header, at
// least min payload bytes and a tag), then the tag (skipped for a nil
// key), then the magic and version.
func (d *Domain) Open(k *mac.Keyed, blob []byte, min int) ([]byte, error) {
	if len(blob) < HeaderSize+min+mac.Size {
		return nil, fmt.Errorf("%w (%d bytes)", d.short, len(blob))
	}
	body := blob[:len(blob)-mac.Size]
	if k != nil && !d.Tag(k, body).Equal(mac.Tag(blob[len(body):])) {
		return nil, d.forged
	}
	return d.SealedHeader(body)
}

// Tag returns the CMAC of d's prefix followed by every part of msg. The
// parts are MACed where they lie, never joined.
func (d *Domain) Tag(k *mac.Keyed, msg ...[]byte) mac.Tag {
	parts := append(make([][]byte, 0, 4), d.prefix)
	tag, _ := k.Sum(append(parts, msg...)...)
	return tag
}

// AppendChained appends body and its chained tag to dst. The tag is the
// CMAC of prefix ‖ prev ‖ body, so each tag pins its predecessor: a
// chain detects reordering and splicing as well as bit flips.
func (d *Domain) AppendChained(dst []byte, k *mac.Keyed, prev mac.Tag, body []byte) ([]byte, mac.Tag) {
	tag := d.Tag(k, prev[:], body)
	return append(append(dst, body...), tag[:]...), tag
}

// OpenChained splits sealed into its body and trailing tag and checks
// the tag against prev. A nil key skips the check, so a caller can walk
// a chain's framing without the key.
func (d *Domain) OpenChained(k *mac.Keyed, prev mac.Tag, sealed []byte) ([]byte, mac.Tag, error) {
	if len(sealed) < mac.Size {
		return nil, mac.Tag{}, fmt.Errorf("%w (%d bytes)", d.short, len(sealed))
	}
	body := sealed[:len(sealed)-mac.Size]
	tag := mac.Tag(sealed[len(body):])
	if k != nil && !d.Tag(k, prev[:], body).Equal(tag) {
		return nil, mac.Tag{}, d.forged
	}
	return body, tag, nil
}
