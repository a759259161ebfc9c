package ckpt

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"asc/internal/mac"
	"asc/internal/seal"
)

// sampleMigration wraps a genuine inner sealed checkpoint so the
// envelope's epoch cross-check has something real to check against.
func sampleMigration(k *mac.Keyed) *Migration {
	s := sampleState()
	return &Migration{
		Epoch: s.Epoch,
		Src:   1,
		Dst:   2,
		Name:  "victim",
		Ckpt:  Seal(k, s),
	}
}

// TestMigrationRoundTrip: every envelope field survives seal/open, and
// serialization is deterministic.
func TestMigrationRoundTrip(t *testing.T) {
	k := testKey(t)
	m := sampleMigration(k)
	blob := SealMigration(k, m)
	if !bytes.Equal(blob, SealMigration(k, m)) {
		t.Fatal("SealMigration is not deterministic")
	}
	got, err := OpenMigration(k, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, m)
	}
}

// TestMigrationRejectsCorruption: bit flips and truncations are
// rejected — the envelope seal covers every byte including the inner
// blob.
func TestMigrationRejectsCorruption(t *testing.T) {
	k := testKey(t)
	blob := SealMigration(k, sampleMigration(k))

	for bit := 0; bit < len(blob)*8; bit += 13 {
		mut := append([]byte(nil), blob...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := OpenMigration(k, mut); !errors.Is(err, ErrSeal) {
			t.Fatalf("bit %d: err = %v, want ErrSeal", bit, err)
		}
	}
	minMigBlob := seal.HeaderSize + migMin + mac.Size
	for _, n := range []int{0, 4, minMigBlob - 1, minMigBlob, len(blob) - 1} {
		_, err := OpenMigration(k, blob[:n])
		switch {
		case n < minMigBlob && !errors.Is(err, ErrTruncated):
			t.Fatalf("truncate to %d: err = %v, want ErrTruncated", n, err)
		case n >= minMigBlob && !errors.Is(err, ErrSeal):
			t.Fatalf("truncate to %d: err = %v, want ErrSeal", n, err)
		}
	}
}

// TestMigrationRejectsWrongKey: sealed under one key, never opens under
// another.
func TestMigrationRejectsWrongKey(t *testing.T) {
	k := testKey(t)
	k2, err := mac.New([]byte("fedcba9876543210"))
	if err != nil {
		t.Fatal(err)
	}
	blob := SealMigration(k, sampleMigration(k))
	if _, err := OpenMigration(k2, blob); !errors.Is(err, ErrSeal) {
		t.Fatalf("err = %v, want ErrSeal", err)
	}
}

// TestMigrationEpochCrossCheck: a genuine envelope whose header epoch
// disagrees with the inner sealed epoch is malformed — a real exporter
// never assembles one, so OpenMigration refuses it even though both
// seals verify... which they cannot: changing the envelope epoch breaks
// the envelope seal. The only way to build the mismatch is with the
// key, i.e. a buggy exporter; simulate one.
func TestMigrationEpochCrossCheck(t *testing.T) {
	k := testKey(t)
	m := sampleMigration(k)
	m.Epoch++ // envelope now disagrees with the inner sealed epoch
	blob := SealMigration(k, m)
	if _, err := OpenMigration(k, blob); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// TestMigrationDomainSeparation: an inner checkpoint blob is not a
// valid envelope (and vice versa) — the two seals live in different MAC
// domains, so a blob can never be confused across layers.
func TestMigrationDomainSeparation(t *testing.T) {
	k := testKey(t)
	inner := Seal(k, sampleState())
	if _, err := OpenMigration(k, inner); err == nil {
		t.Fatal("checkpoint blob opened as a migration envelope")
	}
	env := SealMigration(k, sampleMigration(k))
	if _, err := Open(k, env); err == nil {
		t.Fatal("migration envelope opened as a checkpoint blob")
	}
}

// TestDecodeMigrationTrailingBytes: undecoded garbage after the payload
// is malformed, so the seal never covers bytes the decoder ignored.
func TestDecodeMigrationTrailingBytes(t *testing.T) {
	k := testKey(t)
	body := encodeMigrationBlob(sampleMigration(k))
	if _, err := DecodeMigration(append(body, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	if _, err := DecodeMigration(body[:len(body)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short payload: err = %v, want ErrMalformed", err)
	}
}

// TestReasonNode: ErrNode classifies as "node-mismatch" through
// wrapping.
func TestReasonNode(t *testing.T) {
	if got := seal.Reason(ErrNode); got != seal.ReasonNode {
		t.Fatalf("Reason(ErrNode) = %q, want %q", got, seal.ReasonNode)
	}
	wrapped := errors.Join(errors.New("ctx"), ErrNode)
	if got := seal.Reason(wrapped); got != seal.ReasonNode {
		t.Fatalf("Reason(wrapped) = %q, want %q", got, seal.ReasonNode)
	}
}
