package ckpt

import (
	"bytes"
	"testing"

	"asc/internal/mac"
	"asc/internal/seal"
)

// FuzzCheckpointDecode hammers the unauthenticated decoder with
// arbitrary bytes. The decoder sits behind the seal check in production,
// but it must still be total: no panics, no huge allocations from forged
// counts, and any input it accepts must re-encode to exactly itself
// (decode is the inverse of encode on its accepted set).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ASCK"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	valid := encode(sampleState())
	f.Add(valid)
	for i := 0; i < len(valid); i += 13 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x20
		f.Add(mut)
	}
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeState(data)
		if err != nil {
			return
		}
		if got := encode(s); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not inverse: %d bytes in, %d out", len(data), len(got))
		}
	})
}

// FuzzMigrationDecode hammers the unauthenticated migration-envelope
// decoder with arbitrary bytes. Same contract as the checkpoint
// decoder: total on any input (no panics, no forged-count allocations),
// and decode is the inverse of encode on its accepted set. That nothing
// opens without its own domain's valid tag is seal.FuzzOpen's property.
func FuzzMigrationDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ASCM"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	key, err := mac.New([]byte("0123456789abcdef"))
	if err != nil {
		f.Fatal(err)
	}
	m0 := sampleMigration(key)
	valid := encodeMigrationBlob(m0)
	f.Add(valid)
	for i := 0; i < len(valid); i += 13 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x20
		f.Add(mut)
	}
	f.Add(valid[:len(valid)/2])
	f.Add(SealMigration(key, m0))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMigration(data)
		if err != nil {
			return
		}
		if got := encodeMigrationBlob(m); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not inverse: %d bytes in, %d out", len(data), len(got))
		}
	})
}

// encode and encodeMigrationBlob serialize header and payload — an
// unsealed blob, the decoders' input.
func encode(s *State) []byte {
	e := seal.Enc{B: seal.Checkpoint.Header(nil)}
	encodeState(&e, s)
	return e.B
}

func encodeMigrationBlob(m *Migration) []byte {
	e := seal.Enc{B: seal.Migration.Header(nil)}
	encodeMigration(&e, m)
	return e.B
}
