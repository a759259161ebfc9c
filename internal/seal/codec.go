package seal

import (
	"encoding/binary"
	"fmt"
)

// Enc is the little-endian appender every sealed format encodes with.
type Enc struct{ B []byte }

func (e *Enc) Raw(b []byte) { e.B = append(e.B, b...) }
func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Enc) Bytes(b []byte) { e.U32(uint32(len(b))); e.Raw(b) }
func (e *Enc) Str(s string)   { e.U32(uint32(len(s))); e.B = append(e.B, s...) }

// Dec is the matching bounds-checked reader. It is safe on arbitrary
// input: any overrun or non-canonical value latches a failure and makes
// every later read return zeros, so a decoder reads straight through and
// checks once, with End.
type Dec struct {
	b    []byte
	off  int
	fail bool
}

// NewDec returns a reader over b.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Failed reports whether a read has overrun or met a non-canonical value.
func (d *Dec) Failed() bool { return d.fail }

// End reports, wrapped in class, a decode that overran or left bytes
// unread: a strict decoder accepts exactly what its encoder writes.
func (d *Dec) End(class error) error {
	switch {
	case d.fail:
		return fmt.Errorf("%w: short payload", class)
	case d.off != len(d.b):
		return fmt.Errorf("%w: %d trailing bytes", class, len(d.b)-d.off)
	}
	return nil
}

func (d *Dec) Raw(n int) []byte {
	if d.fail || n < 0 || len(d.b)-d.off < n {
		d.fail = true
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *Dec) U8() uint8 {
	if b := d.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if b := d.Raw(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if b := d.Raw(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bool accepts only the canonical encodings 0 and 1, so decode stays a
// strict inverse of encode on everything it accepts.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail = true
		return false
	}
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (d *Dec) Bytes() []byte {
	if b := d.Raw(int(d.U32())); b != nil {
		return append([]byte(nil), b...)
	}
	return nil
}

func (d *Dec) Str() string { return string(d.Bytes()) }

// Count reads an element count and checks it against the bytes left
// (each element needs at least minSize bytes), so a forged count cannot
// drive a huge allocation.
func (d *Dec) Count(minSize int) int {
	n := int(d.U32())
	if d.fail || n < 0 || n*minSize > len(d.b)-d.off {
		d.fail = true
		return 0
	}
	return n
}
