package durable

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"asc/internal/mac"
	"asc/internal/seal"
	"asc/internal/vfs"
)

var testKey = []byte("0123456789abcdef")

func newLog(t *testing.T) (*vfs.FS, *Log) {
	t.Helper()
	fs := vfs.New()
	l, err := Create(fs, "/director", testKey)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return fs, l
}

// appendN appends n records whose ticks continue from the log's
// sequence number, so repeated calls keep the tick discipline.
func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	base := l.Seq()
	for i := 0; i < n; i++ {
		tick := base + uint64(i)
		r := &Record{Tick: tick, Kind: KindBeat}
		if i%3 == 1 {
			r = &Record{Tick: tick, Kind: KindCheckpoint, Name: "p0", Epoch: tick}
		}
		if err := l.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	fs, l := newLog(t)
	appendN(t, l, 7)
	l2, info, err := Open(fs, "/director", testKey)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(info.Records) != 7 || info.Torn {
		t.Fatalf("Open: %d records torn=%v, want 7 clean", len(info.Records), info.Torn)
	}
	for i, r := range info.Records {
		if r.Seq != uint64(i+1) || r.Term != 1 || r.Tick != uint64(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// The reopened handle continues the chain.
	if err := l2.Append(&Record{Tick: 7, Kind: KindBeat}); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if got := l2.Seq(); got != 8 {
		t.Fatalf("Seq after reopen+append = %d, want 8", got)
	}
}

func TestWALRecordCodec(t *testing.T) {
	r := &Record{Seq: 9, Term: 2, Tick: 41, Kind: KindFinish, Name: "p3",
		Node: 2, Node2: 3, Epoch: 5, Cycles: 123456, Code: 7,
		Flags: FlagKilled, Str: "cf-violation", Data: []byte("out\n")}
	b := EncodeRecord(r)
	got, err := DecodeRecord(b)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if got.Name != r.Name || got.Kind != r.Kind || got.Cycles != r.Cycles ||
		got.Flags != r.Flags || got.Str != r.Str || string(got.Data) != string(r.Data) {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
	if _, err := DecodeRecord(append(b, 0)); err == nil {
		t.Fatal("trailing byte should fail decode")
	}
	if _, err := DecodeRecord(b[:len(b)-1]); err == nil {
		t.Fatal("truncated body should fail decode")
	}
}

func TestWALTornTailRecovery(t *testing.T) {
	fs, l := newLog(t)
	appendN(t, l, 5)
	if err := Tear(fs, "/director", testKey); err != nil {
		t.Fatalf("Tear: %v", err)
	}
	l2, info, err := Open(fs, "/director", testKey)
	if err != nil {
		t.Fatalf("Open after tear: %v", err)
	}
	if !info.Torn || len(info.Records) != 4 {
		t.Fatalf("recovery: torn=%v records=%d, want torn with 4", info.Torn, len(info.Records))
	}
	// Recovery truncated and the log accepts appends again.
	if err := l2.Append(&Record{Tick: 9, Kind: KindBeat}); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if _, info2, err := Open(fs, "/director", testKey); err != nil || len(info2.Records) != 5 {
		t.Fatalf("re-open after recovery append: %v, %d records", err, len(info2.Records))
	}
}

func TestWALTamperDetected(t *testing.T) {
	fs, l := newLog(t)
	appendN(t, l, 5)
	logB, _ := fs.ReadFile(LogPath("/director"))
	anchorB, _ := fs.ReadFile(AnchorPath("/director"))
	spans := Frames(logB)
	if len(spans) != 5 {
		t.Fatalf("Frames: %d, want 5", len(spans))
	}
	// Flip one byte inside the middle record's body.
	mut := append([]byte(nil), logB...)
	mut[spans[2].Off+6] ^= 0x40
	_, err := ValidateBytes(testKey, mut, anchorB)
	if !errors.Is(err, ErrTamper) {
		t.Fatalf("flipped record: %v, want ErrTamper", err)
	}
	if seal.Reason(err) != seal.ReasonTamper {
		t.Fatalf("Reason = %q, want %q", seal.Reason(err), seal.ReasonTamper)
	}
	// The pristine image still validates.
	if _, err := ValidateBytes(testKey, logB, anchorB); err != nil {
		t.Fatalf("pristine image: %v", err)
	}
}

func TestWALStaleLogRejected(t *testing.T) {
	fs, l := newLog(t)
	appendN(t, l, 3)
	oldLog, _ := fs.ReadFile(LogPath("/director"))
	appendN(t, l, 3)
	anchorB, _ := fs.ReadFile(AnchorPath("/director"))
	_, err := ValidateBytes(testKey, oldLog, anchorB)
	if !errors.Is(err, ErrReplay) {
		t.Fatalf("stale log vs fresh anchor: %v, want ErrReplay", err)
	}
	if seal.Reason(err) != seal.ReasonReplay {
		t.Fatalf("Reason = %q, want %q", seal.Reason(err), seal.ReasonReplay)
	}
	// A stale anchor (far behind) is a freshness failure too.
	if _, err := ValidateBytes(testKey, oldLog, nil); !errors.Is(err, ErrReplay) {
		t.Fatalf("missing anchor: %v, want ErrReplay", err)
	}
}

func TestWALTermFencing(t *testing.T) {
	fs, l := newLog(t)
	appendN(t, l, 4)
	// A standby opens the same log, bumps the term, and writes the
	// takeover record.
	l2, _, err := Open(fs, "/director", testKey)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l2.BumpTerm()
	if err := l2.Append(&Record{Tick: 10, Kind: KindTakeover}); err != nil {
		t.Fatalf("takeover append: %v", err)
	}
	if l2.Term() != 2 {
		t.Fatalf("Term = %d, want 2", l2.Term())
	}
	// The deposed handle is fenced out.
	err = l.Append(&Record{Tick: 11, Kind: KindBeat})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed append: %v, want ErrFenced", err)
	}
	// The new handle keeps appending, and validation sees both terms.
	if err := l2.Append(&Record{Tick: 11, Kind: KindBeat}); err != nil {
		t.Fatalf("new-term append: %v", err)
	}
	_, info, err := Open(fs, "/director", testKey)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	if info.LastTerm != 2 || len(info.Records) != 6 {
		t.Fatalf("after takeover: term %d, %d records", info.LastTerm, len(info.Records))
	}
}

// TestWALTermRegressionRejected: a log whose chain verifies but whose
// term steps backwards is tampering to both the validator and the
// tailer, which walk it with the same checks.
func TestWALTermRegressionRejected(t *testing.T) {
	k, err := mac.New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	b := seal.WAL.Header(nil)
	var prev mac.Tag
	for i, term := range []uint32{2, 1} {
		body := EncodeRecord(&Record{Seq: uint64(i + 1), Term: term, Tick: uint64(i), Kind: KindBeat})
		b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
		b, prev = seal.WAL.AppendChained(b, k, prev, body)
	}
	fs := vfs.New()
	if err := fs.MkdirAll("/director", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(LogPath("/director"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(AnchorPath("/director"), encodeAnchor(k, anchor{Term: 1, Seq: 2, Tag: prev}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(fs, "/director", testKey); !errors.Is(err, ErrTamper) {
		t.Fatalf("Open: %v, want ErrTamper", err)
	}
	tl, err := NewTailer(fs, "/director", testKey)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := tl.Tail(); !errors.Is(err, ErrTamper) || len(recs) != 1 {
		t.Fatalf("Tail: %d records, %v; want the term-2 record then ErrTamper", len(recs), err)
	}
}

func TestWALTailerFollowsAppends(t *testing.T) {
	fs, l := newLog(t)
	tl, err := NewTailer(fs, "/director", testKey)
	if err != nil {
		t.Fatalf("NewTailer: %v", err)
	}
	appendN(t, l, 3)
	recs, err := tl.Tail()
	if err != nil || len(recs) != 3 {
		t.Fatalf("first Tail: %v, %d records", err, len(recs))
	}
	if recs, _ := tl.Tail(); len(recs) != 0 {
		t.Fatalf("idle Tail returned %d records", len(recs))
	}
	appendN(t, l, 2)
	recs, err = tl.Tail()
	if err != nil || len(recs) != 2 {
		t.Fatalf("incremental Tail: %v, %d records", err, len(recs))
	}
	if recs[1].Seq != 5 {
		t.Fatalf("tailer lost sync: last seq %d, want 5", recs[1].Seq)
	}
}

// TestWALGolden pins the wire bytes of a two-record log and its anchor,
// so a change to how frames and anchors are built cannot change what
// they are.
func TestWALGolden(t *testing.T) {
	fs, l := newLog(t)
	if err := l.Append(&Record{Tick: 1, Kind: KindPlace, Name: "p0", Node: 1, Cycles: 500, Data: []byte("in")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Tick: 2, Kind: KindFinish, Name: "p0", Code: 3, Flags: FlagKilled, Str: "cf"}); err != nil {
		t.Fatal(err)
	}
	logB, _ := fs.ReadFile(LogPath("/director"))
	anchorB, _ := fs.ReadFile(AnchorPath("/director"))
	if got, want := hex.EncodeToString(logB), "415343570100000045000000010000000000000001000000010000000000000001000000"+
		"02000000703001000000000000000000000000000000f401000000000000000000000000"+
		"00000002000000696e283519a2095eb57852039f05090ece654500000002000000000000"+
		"000100000002000000000000000b00000002000000703000000000000000000000000000"+
		"000000000000000000000003000000010200000063660000000075602eb1327652434e42"+
		"d1b2c9784e78"; got != want {
		t.Errorf("log = %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(anchorB), "415343410100000001000000020000000000000075602eb1327652434e42d1b2c9784e78"+
		"e7f596f46673f551595c1a3d524e1540"; got != want {
		t.Errorf("anchor = %s, want %s", got, want)
	}
}
