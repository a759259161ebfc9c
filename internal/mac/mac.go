// Package mac implements the AES-CMAC (OMAC1) message authentication code
// used throughout the authenticated system call (ASC) system.
//
// The paper specifies AES-CBC-OMAC producing a 128-bit code; OMAC1 is the
// standardized variant (NIST SP 800-38B, RFC 4493). Both the trusted
// installer and the simulated kernel derive tags with this package, using a
// key that is never available to application code.
package mac

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync"
)

// Size is the length of a MAC tag in bytes (128 bits).
const Size = 16

// KeySize is the length of an AES-128 key in bytes.
const KeySize = 16

// ErrBadKeySize is returned when a key of the wrong length is supplied.
var ErrBadKeySize = errors.New("mac: key must be 16 bytes (AES-128)")

// Tag is a 128-bit message authentication code.
type Tag [Size]byte

// String renders the tag as lowercase hex.
func (t Tag) String() string {
	return fmt.Sprintf("%x", t[:])
}

// Equal reports whether two tags match, in constant time.
func (t Tag) Equal(o Tag) bool {
	return subtle.ConstantTimeCompare(t[:], o[:]) == 1
}

// Keyed computes CMAC tags under a fixed key. It precomputes the AES key
// schedule and the two CMAC subkeys, so repeated Sum calls are cheap. A
// Keyed value is safe for concurrent use by multiple goroutines: Sum does
// not mutate shared state (the internal scratch blocks are taken from a
// pool, never shared between in-flight computations).
type Keyed struct {
	block cipher.Block
	k1    [Size]byte
	k2    [Size]byte

	// scratch recycles the working state of Sum: the two blocks, the CBC
	// encrypter and its output buffer. Passing stack arrays through the
	// cipher interfaces forces them to the heap, and an encrypter copies
	// the key schedule, so without the pool every Sum would allocate —
	// measurable in the kernel trap handler, which computes several MACs
	// per call.
	scratch sync.Pool
}

// chunk is how many message bytes one CryptBlocks call of the bulk CBC
// pass covers: the size of the scratch buffer its ciphertext lands in.
// A 256 KiB message MACs as fast through 256-byte chunks as through
// 4 KiB ones, and pooled scratch stays on the heap, so it is small.
const chunk = 256

// cmacScratch holds the working state of one CMAC computation.
type cmacScratch struct {
	x    [Size]byte
	last [Size]byte
	cbc  cbcMode // CBC encryption under the Keyed's key, made and set by absorb
	buf  [chunk]byte
}

// cbcMode is a CBC encrypter whose chaining value can be reset, which
// both of the standard library's CBC encrypters are.
type cbcMode interface {
	cipher.BlockMode
	SetIV([]byte)
}

// New returns a Keyed MAC for the given AES-128 key.
func New(key []byte) (*Keyed, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("mac: new cipher: %w", err)
	}
	k := &Keyed{block: block}
	var l [Size]byte
	block.Encrypt(l[:], l[:])
	dbl(&k.k1, &l)
	dbl(&k.k2, &k.k1)
	return k, nil
}

// dbl doubles a 128-bit value in GF(2^128) with the CMAC reduction
// polynomial (x^128 + x^7 + x^2 + x + 1).
func dbl(dst, src *[Size]byte) {
	var carry byte
	for i := Size - 1; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
	if carry != 0 {
		dst[Size-1] ^= 0x87
	}
}

// Sum computes the CMAC tag of the message made of the parts of msg, in
// order. The parts are absorbed where they lie: a caller whose message
// is in pieces never joins them.
//
// It also reports the number of AES block operations performed, which the
// simulated kernel uses for deterministic cycle accounting (the cycle model
// charges a fixed cost per block operation; see internal/kernel).
func (k *Keyed) Sum(msg ...[]byte) (Tag, int) {
	s := k.get()
	tag, blocks := k.finish(s, msg)
	k.scratch.Put(s)
	return tag, blocks
}

// chained returns how many leading bytes of an n-byte message CMAC
// CBC-chains before its final, subkey-masked block.
func chained(n int) int {
	if n <= Size {
		return 0
	}
	return (n - 1) / Size * Size
}

func (k *Keyed) get() *cmacScratch {
	if s, _ := k.scratch.Get().(*cmacScratch); s != nil {
		return s
	}
	return new(cmacScratch)
}

// absorb CBC-chains the first n bytes of the parts of msg, n a multiple
// of Size, into s.x; the bytes after them, at most a block, go to s.last.
// It returns the number of blocks chained. It is one bulk CBC pass from
// s.x, a chunk at a time: the parts are copied into s.buf, across their
// boundaries, and encrypted there (msg itself never reaches the cipher
// interface, which would move a caller's stack buffer to the heap), and
// the last ciphertext block is the new chaining value.
func (k *Keyed) absorb(s *cmacScratch, msg [][]byte, n int) (blocks, tail int) {
	if n > 0 {
		if s.cbc == nil {
			// Made on first use: a message of one block never needs it.
			s.cbc = cipher.NewCBCEncrypter(k.block, s.x[:]).(cbcMode)
		} else {
			s.cbc.SetIV(s.x[:])
		}
	}
	fill, rem := 0, n // bytes waiting in s.buf, chained bytes not yet copied
	for _, p := range msg {
		for len(p) > 0 {
			if rem == 0 {
				c := copy(s.last[tail:], p)
				tail, p = tail+c, p[c:]
				continue
			}
			c := copy(s.buf[fill:min(chunk, fill+rem)], p)
			fill, rem, p = fill+c, rem-c, p[c:]
			if fill == chunk || rem == 0 {
				s.cbc.CryptBlocks(s.buf[:fill], s.buf[:fill])
				copy(s.x[:], s.buf[fill-Size:fill])
				fill = 0
			}
		}
	}
	return n / Size, tail
}

// finish is the one CMAC core: from a zero chaining value it absorbs
// every block of msg but the last, then the last block masked with its
// subkey (K1 when complete, K2 after 10* padding), and returns the tag
// and the AES block operations performed.
func (k *Keyed) finish(s *cmacScratch, msg [][]byte) (Tag, int) {
	s.x = [Size]byte{}
	total := 0
	for _, p := range msg {
		total += len(p)
	}
	s.last = [Size]byte{}
	blocks, tail := k.absorb(s, msg, chained(total))
	blocks++
	sub := &k.k1
	if tail < Size {
		s.last[tail] = 0x80
		sub = &k.k2
	}
	for i := 0; i < Size; i++ {
		s.x[i] ^= s.last[i] ^ sub[i]
	}
	k.block.Encrypt(s.x[:], s.x[:])
	return Tag(s.x), blocks
}

// Verify recomputes the tag of msg and compares it with want in constant
// time. It reports whether the tag matches and how many AES block
// operations were performed.
func (k *Keyed) Verify(msg []byte, want Tag) (bool, int) {
	got, blocks := k.Sum(msg)
	return got.Equal(want), blocks
}

// Blocks returns the number of AES block operations Sum will perform for a
// message of length n, without computing anything.
func Blocks(n int) int {
	if n <= Size {
		return 1
	}
	return (n + Size - 1) / Size
}

// SumBatch computes the CMAC tag of every message in one pass, appending
// the tags to dst and returning it along with the total AES block count.
// Each tag equals Sum of the corresponding message; batching changes how
// the work is scheduled (one key-schedule walk, one scratch checkout for
// the whole group), which the kernel's cost model reflects with a
// discounted per-block charge for group-committed verification.
func (k *Keyed) SumBatch(msgs [][]byte, dst []Tag) ([]Tag, int) {
	s := k.get()
	total := 0
	for _, msg := range msgs {
		tag, blocks := k.finish(s, [][]byte{msg})
		dst = append(dst, tag)
		total += blocks
	}
	k.scratch.Put(s)
	return dst, total
}
