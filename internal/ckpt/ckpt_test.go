package ckpt

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"asc/internal/mac"
	"asc/internal/seal"
)

func testKey(t *testing.T) *mac.Keyed {
	t.Helper()
	k, err := mac.New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func sampleState() *State {
	return &State{
		Epoch:         7,
		ProgTag:       mac.Tag{1, 2, 3, 4},
		Name:          "victim",
		Authenticated: true,
		Enforcement:   1,
		Regs:          []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		PC:            0x1000_0040,
		Cycles:        123456,
		MemBase:       0x1000_0000,
		MemSize:       4 << 20,
		Brk:           0x1000_3000,
		Segs: []SegState{
			{Name: ".text", Start: 0x1000_0000, End: 0x1000_0040, Perms: 5, Gen: 0,
				Runs: []Run{{Off: 0, Data: bytes.Repeat([]byte{0xaa}, 0x40)}}},
			{Name: "heap", Start: 0x1000_3000, End: 0x1000_3000, Perms: 3, Gen: 2},
			{Name: "stack", Start: 0x103c_0000, End: 0x1040_0000, Perms: 7, Gen: 3,
				Runs: []Run{{Off: 0x3_e000, Data: []byte{1}}, {Off: 0x3_f000, Data: []byte{2, 3}}}},
		},
		Counter:        9,
		FDTrack:        true,
		FDTrackCounter: 4,
		Cwd:            "/tmp",
		Umask:          0o22,
		Stdin:          []byte("in"),
		StdinPos:       1,
		Stdout:         []byte("out"),
		NumFDSlots:     4,
		FDs: []FDState{
			{Slot: 0, Kind: 2},
			{Slot: 3, Kind: 1, Path: "/tmp/f", Offset: 12},
		},
		Sigs:         []SigState{{Num: 2, Handler: 0x1000_0080}},
		SyscallCount: 42,
		VerifyCount:  40,
	}
}

// TestSealOpenRoundTrip: every field survives a seal/open cycle, and the
// serialization is deterministic.
func TestSealOpenRoundTrip(t *testing.T) {
	k := testKey(t)
	s := sampleState()
	blob := Seal(k, s)
	if !bytes.Equal(blob, Seal(k, s)) {
		t.Fatal("Seal is not deterministic")
	}
	got, err := Open(k, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, s)
	}
	if ep, err := SealedEpoch(blob); err != nil || ep != s.Epoch {
		t.Fatalf("SealedEpoch = %d, %v; want %d", ep, err, s.Epoch)
	}
}

// TestOpenRejectsCorruption: every single-bit flip and every truncation
// is rejected, with truncations below the minimum classified separately.
func TestOpenRejectsCorruption(t *testing.T) {
	k := testKey(t)
	blob := Seal(k, sampleState())

	for bit := 0; bit < len(blob)*8; bit += 7 { // stride keeps the test fast
		mut := append([]byte(nil), blob...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := Open(k, mut); !errors.Is(err, ErrSeal) {
			t.Fatalf("bit %d: err = %v, want ErrSeal", bit, err)
		}
	}
	minBlob := seal.HeaderSize + 8 + mac.Size // header, epoch, tag
	for _, n := range []int{0, 4, seal.HeaderSize + 8, minBlob - 1, minBlob, len(blob) - 1} {
		_, err := Open(k, blob[:n])
		switch {
		case n < minBlob && !errors.Is(err, ErrTruncated):
			t.Fatalf("truncate to %d: err = %v, want ErrTruncated", n, err)
		case n >= minBlob && !errors.Is(err, ErrSeal):
			t.Fatalf("truncate to %d: err = %v, want ErrSeal", n, err)
		}
	}
}

// TestOpenRejectsWrongKey: a blob sealed under one key never opens under
// another.
func TestOpenRejectsWrongKey(t *testing.T) {
	k := testKey(t)
	k2, err := mac.New([]byte("fedcba9876543210"))
	if err != nil {
		t.Fatal(err)
	}
	blob := Seal(k, sampleState())
	if _, err := Open(k2, blob); !errors.Is(err, ErrSeal) {
		t.Fatalf("err = %v, want ErrSeal", err)
	}
}

// TestDecodeTrailingBytes: extra bytes after the payload are malformed,
// so a seal can never cover undecoded garbage.
func TestDecodeTrailingBytes(t *testing.T) {
	body := encode(sampleState())
	if _, err := DecodeState(append(body, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	if _, err := DecodeState(body[:len(body)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short payload: err = %v, want ErrMalformed", err)
	}
}

// TestReason: every entry of the one rejection table maps to its
// canonical string, through wrapping.
func TestReason(t *testing.T) {
	cases := map[string]error{
		"":                   nil,
		seal.ReasonTruncated: ErrTruncated,
		seal.ReasonSeal:      ErrSeal,
		seal.ReasonMalformed: ErrMalformed,
		seal.ReasonEpoch:     ErrEpoch,
		seal.ReasonProgram:   ErrProgram,
		seal.ReasonState:     ErrState,
		seal.ReasonNode:      ErrNode,
		seal.ReasonTamper:    seal.ErrTamper,
		seal.ReasonReplay:    seal.ErrReplay,
		seal.ReasonOther:     errors.New("boom"),
	}
	for want, err := range cases {
		if got := seal.Reason(err); got != want {
			t.Errorf("Reason(%v) = %q, want %q", err, got, want)
		}
		if err != nil {
			wrapped := errors.Join(errors.New("ctx"), err)
			if got := seal.Reason(wrapped); got != want {
				t.Errorf("Reason(wrapped %v) = %q, want %q", err, got, want)
			}
		}
	}
}

// TestProgramTagDistinguishes: different images, different tags; the tag
// domain is separated from the seal domain.
func TestProgramTagDistinguishes(t *testing.T) {
	k := testKey(t)
	a := ProgramTag(k, []byte("image-a"))
	b := ProgramTag(k, []byte("image-b"))
	if a.Equal(b) {
		t.Fatal("distinct images share a program tag")
	}
}

// TestStoreMonotonicEpochs: Put enforces strictly increasing epochs and
// Chain returns newest first with the trusted epochs.
func TestStoreMonotonicEpochs(t *testing.T) {
	s := NewStore()
	if err := s.Put(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("x")); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("duplicate epoch: err = %v", err)
	}
	if err := s.Put(1, []byte("x")); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("regressing epoch: err = %v", err)
	}
	if s.Len() != 2 || s.NewestEpoch() != 2 {
		t.Fatalf("len=%d newest=%d", s.Len(), s.NewestEpoch())
	}
	chain := s.Chain()
	if len(chain) != 2 || chain[0].Epoch != 2 || chain[1].Epoch != 1 {
		t.Fatalf("chain = %+v, want newest first", chain)
	}
	if string(chain[0].Blob) != "b" || string(chain[1].Blob) != "a" {
		t.Fatalf("chain blobs = %q, %q", chain[0].Blob, chain[1].Blob)
	}
}

// TestStoreTamperHook: the hook sees the pristine chain and replaces
// only what it returns; the stored entries stay intact.
func TestStoreTamperHook(t *testing.T) {
	s := NewStore()
	_ = s.Put(1, []byte("old"))
	_ = s.Put(2, []byte("new"))
	s.Tamper = func(chain []Entry, i int) []byte {
		if i == 0 {
			return chain[1].Blob // replay the older blob into the newest slot
		}
		return chain[i].Blob
	}
	chain := s.Chain()
	if string(chain[0].Blob) != "old" || string(chain[1].Blob) != "old" {
		t.Fatalf("tampered chain = %q, %q", chain[0].Blob, chain[1].Blob)
	}
	if chain[0].Epoch != 2 {
		t.Fatalf("trusted epoch perturbed: %d", chain[0].Epoch)
	}
	s.Tamper = nil
	if clean := s.Chain(); string(clean[0].Blob) != "new" {
		t.Fatal("tamper hook modified the stored entries")
	}
}

// goldenState is a small v4 state touching every section of the
// format, the paged section included.
func goldenState() *State {
	return &State{
		Epoch: 3, ProgTag: mac.Tag{0xa5}, Name: "g", Authenticated: true, Enforcement: 1,
		Regs: []uint32{1, 2}, PC: 0x40, Cycles: 99,
		MemBase: 0x1000, MemSize: 0x2000, Brk: 0x1800,
		Segs: []SegState{{Name: "d", Start: 0x1000, End: 0x1010, Perms: 3, Gen: 5,
			Runs: []Run{{Off: 0, Data: []byte{9, 8}}, {Off: 0xc, Data: []byte{7, 6}}}}},
		Counter: 4, FDTrack: true, FDTrackCounter: 2,
		Cwd: "/", Umask: 0o22, Stdin: []byte("i"), StdinPos: 1, Stdout: []byte("o"), NumFDSlots: 2,
		FDs:          []FDState{{Slot: 1, Kind: 1, Path: "/f", Offset: 3}},
		Sigs:         []SigState{{Num: 2, Handler: 0x80}},
		SyscallCount: 7, VerifyCount: 6,
		Paged: true, PageBase: 0x1800, PageHand: 1, PageFlags: []byte{1, 0}, PageGens: []uint64{0, 2},
		SwapPages: []SwapPageState{{Index: 1, Data: []byte{5, 5}}},
	}
}

// goldenCkptV3 is goldenState sealed under testKey in state format v3,
// which also carried the lengths 0x1000 and 0x800 of two memory regions.
const goldenCkptV3 = "4153434b030000000300000000000000a500000000000000000000000000000001000000" +
	"670101000000020000000100000002000000400000006300000000000000000010000000" +
	"200000001000000008000000180000010000000100000064001000001010000003050000" +
	"000000000002000000000000000200000009080c00000002000000070604000000000000" +
	"00010200000000000000010000002f12000000010000006901000000010000006f020000" +
	"00010000000100000001000000020000002f660300000001000000020000008000000007" +
	"000000000000000600000000000000000000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000010018000001000000" +
	"020000000100020000000000000000000000020000000000000001000000010000000200" +
	"00000505c48246e910ae7aabe3a1758e51a40349"

// goldenCkpt is the sealed hex of goldenState under testKey.
const goldenCkpt = "4153434b040000000300000000000000a500000000000000000000000000000001000000" +
	"670101000000020000000100000002000000400000006300000000000000000010000000" +
	"200000001800000100000001000000640010000010100000030500000000000000020000" +
	"00000000000200000009080c000000020000000706040000000000000001020000000000" +
	"0000010000002f12000000010000006901000000010000006f0200000001000000010000" +
	"0001000000020000002f6603000000010000000200000080000000070000000000000006" +
	"000000000000000000000000000000000000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000100180000010000000200000001000200" +
	"000000000000000000000200000000000000010000000100000002000000050564f67cae" +
	"a418da8c339205f1a5c3b679"

// TestOpenRejectsV3: a genuine v3 blob, its seal intact, fails the
// version check; v3 has no decoder.
func TestOpenRejectsV3(t *testing.T) {
	blob, err := hex.DecodeString(goldenCkptV3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testKey(t), blob); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("v3 blob: err = %v, want ErrMalformed for version 3", err)
	}
}

// TestSealedGolden pins the wire bytes of a sealed checkpoint, a program
// tag and a migration envelope, so a change to how they are built cannot
// change what they are.
func TestSealedGolden(t *testing.T) {
	k := testKey(t)
	ck := Seal(k, goldenState())
	if got := hex.EncodeToString(ck); got != goldenCkpt {
		t.Errorf("checkpoint = %s, want %s", got, goldenCkpt)
	}
	if got, want := ProgramTag(k, []byte("golden image")).String(), "b4a4c7e455bef60675202297f89b040d"; got != want {
		t.Errorf("program tag = %s, want %s", got, want)
	}
	env := SealMigration(k, &Migration{Epoch: 3, Src: 1, Dst: 2, Name: "g", Ckpt: ck})
	if got, want := hex.EncodeToString(env), "4153434d01000000030000000000000001000000020000000100000067"+
		"50010000"+goldenCkpt+"bc24a5d6398bcb2b9e0c4efd59d388af"; got != want {
		t.Errorf("migration envelope = %s, want %s", got, want)
	}
}

// TestDecodeRejectsBadLayout: runs that overlap, go backwards or pass
// their segment's end are malformed; adjacent runs and a run ending at
// its segment's end are not.
func TestDecodeRejectsBadLayout(t *testing.T) {
	cases := []struct {
		name string
		edit func(s *State)
		ok   bool
	}{
		{"overlapping runs", func(s *State) {
			s.Segs[0].Runs = []Run{{Off: 0, Data: []byte{1, 2, 3, 4}}, {Off: 2, Data: []byte{5}}}
		}, false},
		{"backwards runs", func(s *State) {
			s.Segs[0].Runs = []Run{{Off: 8, Data: []byte{1}}, {Off: 0, Data: []byte{2}}}
		}, false},
		{"run past End", func(s *State) {
			s.Segs[0].Runs = []Run{{Off: 0xc, Data: []byte{1, 2, 3, 4, 5}}}
		}, false},
		{"run past End of an inverted segment", func(s *State) {
			s.Segs[0].End = s.Segs[0].Start - 1
		}, false},
		{"adjacent runs", func(s *State) {
			s.Segs[0].Runs = []Run{{Off: 0, Data: []byte{1, 2}}, {Off: 2, Data: []byte{3}}}
		}, true},
		{"run ending at End", func(s *State) {
			s.Segs[0].Runs = []Run{{Off: 0xf, Data: []byte{1}}}
		}, true},
	}
	for _, tc := range cases {
		s := goldenState()
		tc.edit(s)
		_, err := DecodeState(encode(s))
		if tc.ok && err != nil {
			t.Errorf("%s: %v, want accepted", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, err)
		}
	}
}
