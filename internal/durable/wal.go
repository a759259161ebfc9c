// Package durable makes the fleet director's control plane restartable:
// a sealed write-ahead log of every control-plane decision, and a
// VFS-backed checkpoint store that survives the director process.
//
// The trust argument mirrors the checkpoint layer's. Director state that
// leaves the director's hands — records written to the shared durable
// filesystem — is never trusted on the way back in: every record is
// chained by a domain-separated CMAC over the previous record's tag, so
// a standby replaying the log detects bit flips (the chain breaks) and
// reordering or splicing (each tag pins its predecessor). What the chain
// alone cannot decide is freshness — an attacker who snapshots the whole
// log and anchor early can present a self-consistent prefix — so a
// separately sealed anchor records the newest (term, seq, tag) after
// every append. A log whose chain verifies but whose anchor points past
// its last record is a replayed stale copy and is rejected, not
// replayed. Torn tails — a crash mid-append — are the one recoverable
// corruption: the partial frame is detected by framing, truncated, and
// the log resumes from the last sealed record.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"asc/internal/mac"
	"asc/internal/seal"
	"asc/internal/vfs"
)

// MaxRecord bounds one record body. The log is the seal.WAL header
// followed by frames — a length prefix, a record body and its chained
// tag — and a frame whose declared length exceeds MaxRecord cannot be
// legitimate and is classified as tampering.
const MaxRecord = 1 << 20

// Kind enumerates the control-plane decisions the WAL records.
type Kind uint32

const (
	// KindPlace: initial (or cold re-) placement of Name on Node; Data
	// carries the stdin bytes and Cycles the per-process budget, so a
	// takeover can re-create the placement from the log alone.
	KindPlace Kind = 1 + iota
	// KindBeat: director liveness heartbeat, the standby's takeover
	// signal.
	KindBeat
	// KindCheckpoint: Name sealed Epoch into its durable store.
	KindCheckpoint
	// KindExportFence: Name's Epoch was exported from Node toward
	// Node2 and the source fenced — written before the first byte
	// crosses the fabric.
	KindExportFence
	// KindMigDone: the migration of Name at Epoch committed on Node.
	KindMigDone
	// KindMigTorn: the transfer died mid-handshake; Name is pending.
	KindMigTorn
	// KindNodeDown: the failure detector declared Node failed.
	KindNodeDown
	// KindFailover: Name lost its node; Str is the cause.
	KindFailover
	// KindRestore: Name re-placed warm on Node from Epoch.
	KindRestore
	// KindColdStart: Name re-placed cold on Node.
	KindColdStart
	// KindFinish: Name finished; Code/Flags/Str/Data hold the exit
	// code, killed/error flags, reason, and output, Cycles the final
	// cycle count — enough for a takeover to report the result.
	KindFinish
	// KindTakeover: a standby took over; Term was bumped, fencing the
	// previous director's log handle.
	KindTakeover

	kindMax = KindTakeover
)

var kindNames = [...]string{
	KindPlace: "place", KindBeat: "beat", KindCheckpoint: "checkpoint",
	KindExportFence: "export-fence", KindMigDone: "mig-done",
	KindMigTorn: "mig-torn", KindNodeDown: "node-down",
	KindFailover: "failover", KindRestore: "restore",
	KindColdStart: "cold-start", KindFinish: "finish",
	KindTakeover: "takeover",
}

func (k Kind) String() string {
	if k >= 1 && k <= kindMax {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint32(k))
}

// Flag bits on KindFinish records.
const (
	FlagKilled = 1 << 0
	FlagErr    = 1 << 1
)

// Record is one fixed-encoding WAL entry. Seq and Term are assigned by
// Append; everything else is the writer's.
type Record struct {
	Seq    uint64 // 1-based position in the log
	Term   uint32 // director generation (bumped by takeover)
	Tick   uint64 // virtual tick of the decision
	Kind   Kind
	Name   string // process name ("" for fleet-wide records)
	Node   uint32 // primary node operand (0 when absent)
	Node2  uint32 // secondary node operand (migration destination)
	Epoch  uint64
	Cycles uint64
	Code   uint32
	Flags  uint8
	Str    string // reason / detail
	Data   []byte // stdin (place) or output (finish)
}

// Failure classes. ErrTamper and ErrReplay are rejection classes of
// package seal, which maps them to their reasons.
var (
	ErrTamper = seal.ErrTamper
	ErrReplay = seal.ErrReplay
	// ErrFenced: an append through a handle whose term the anchor has
	// moved past — a deposed director writing after takeover.
	ErrFenced = errors.New("durable: log fenced by a newer term")
	// ErrMalformed: a record body that does not decode (only reachable
	// through DecodeRecord; sealed records always decode).
	ErrMalformed = errors.New("durable: malformed WAL record")
)

// LogPath and AnchorPath locate the WAL inside a durable directory.
func LogPath(dir string) string    { return dir + "/wal.log" }
func AnchorPath(dir string) string { return dir + "/wal.anchor" }

// EncodeRecord serializes a record body (everything the tag covers).
func EncodeRecord(r *Record) []byte {
	var e seal.Enc
	e.U64(r.Seq)
	e.U32(r.Term)
	e.U64(r.Tick)
	e.U32(uint32(r.Kind))
	e.Str(r.Name)
	e.U32(r.Node)
	e.U32(r.Node2)
	e.U64(r.Epoch)
	e.U64(r.Cycles)
	e.U32(r.Code)
	e.U8(r.Flags)
	e.Str(r.Str)
	e.Bytes(r.Data)
	return e.B
}

// DecodeRecord is the strict inverse of EncodeRecord: it fails on
// overruns, unknown kinds, and trailing bytes, so decode∘encode is the
// identity on everything it accepts.
func DecodeRecord(b []byte) (*Record, error) {
	d := seal.NewDec(b)
	r := Record{Seq: d.U64(), Term: d.U32(), Tick: d.U64(), Kind: Kind(d.U32()),
		Name: d.Str(), Node: d.U32(), Node2: d.U32(), Epoch: d.U64(), Cycles: d.U64(),
		Code: d.U32(), Flags: d.U8(), Str: d.Str(), Data: d.Bytes()}
	if err := d.End(ErrMalformed); err != nil {
		return nil, err
	}
	if r.Kind < 1 || r.Kind > kindMax {
		return nil, fmt.Errorf("%w: kind %d", ErrMalformed, uint32(r.Kind))
	}
	return &r, nil
}

// anchor is the sealed freshness pointer: the newest (term, seq, tag)
// the director has durably acknowledged, sealed as a seal.Anchor blob.
type anchor struct {
	Term uint32
	Seq  uint64
	Tag  mac.Tag
}

// anchorSize is the anchor's payload: term, seq and tag.
const anchorSize = 4 + 8 + mac.Size

func encodeAnchor(k *mac.Keyed, a anchor) []byte {
	b := seal.Anchor.Begin(anchorSize)
	b = binary.LittleEndian.AppendUint32(b, a.Term)
	b = binary.LittleEndian.AppendUint64(b, a.Seq)
	return seal.Anchor.Seal(k, append(b, a.Tag[:]...))
}

func decodeAnchor(k *mac.Keyed, b []byte) (anchor, error) {
	p, err := seal.Anchor.Open(k, b, anchorSize)
	if err != nil {
		return anchor{}, fmt.Errorf("anchor: %w", err)
	}
	if len(p) != anchorSize {
		return anchor{}, fmt.Errorf("%w: anchor payload %d bytes", ErrTamper, len(p))
	}
	return anchor{Term: binary.LittleEndian.Uint32(p), Seq: binary.LittleEndian.Uint64(p[4:]),
		Tag: mac.Tag(p[12:])}, nil
}

// Log is an open write-ahead log. Safe for one appender plus any number
// of Tailer readers.
type Log struct {
	mu   sync.Mutex
	fs   *vfs.FS
	key  *mac.Keyed
	dir  string
	node *vfs.Node

	seq     uint64
	term    uint32
	prevTag mac.Tag
}

// Create initializes a fresh WAL (term 1, empty chain) under dir,
// replacing any previous log there.
func Create(fs *vfs.FS, dir string, key []byte) (*Log, error) {
	k, err := mac.New(key)
	if err != nil {
		return nil, err
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := fs.WriteFile(LogPath(dir), seal.WAL.Header(nil), 0o644); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	l := &Log{fs: fs, key: k, dir: dir, term: 1}
	node, err := fs.Lookup(LogPath(dir))
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	l.node = node
	if err := l.writeAnchor(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) writeAnchor() error {
	b := encodeAnchor(l.key, anchor{Term: l.term, Seq: l.seq, Tag: l.prevTag})
	if err := l.fs.WriteFile(AnchorPath(l.dir), b, 0o644); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// Seq returns the sequence number of the newest appended record.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Term returns the log handle's director generation.
func (l *Log) Term() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// Append assigns the next (seq, term), seals the record onto the chain,
// appends the frame atomically, and advances the anchor. The write is
// term-fenced: if the on-disk anchor has moved past this handle's state
// — a standby took over — the append is refused with ErrFenced, so a
// deposed director cannot extend the log behind its successor's back.
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ab, err := l.fs.ReadFile(AnchorPath(l.dir))
	if err != nil {
		return fmt.Errorf("durable: anchor: %w", err)
	}
	a, err := decodeAnchor(l.key, ab)
	if err != nil {
		return err
	}
	if a.Term > l.term || a.Seq != l.seq || !a.Tag.Equal(l.prevTag) {
		return fmt.Errorf("%w: anchor at term %d seq %d, handle at term %d seq %d",
			ErrFenced, a.Term, a.Seq, l.term, l.seq)
	}
	r.Seq = l.seq + 1
	r.Term = l.term
	body := EncodeRecord(r)
	if len(body) > MaxRecord {
		return fmt.Errorf("durable: record %d bytes exceeds MaxRecord", len(body))
	}
	frame := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(body)+mac.Size), uint32(len(body)))
	frame, tag := seal.WAL.AppendChained(frame, l.key, l.prevTag, body)
	if _, err := l.fs.Append(l.node, frame); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	l.seq++
	l.prevTag = tag
	return l.writeAnchor()
}

// BumpTerm advances the handle's term without writing a record; the
// next Append (conventionally a KindTakeover record) seals the new term
// into the chain and the anchor, fencing the previous term's handle.
func (l *Log) BumpTerm() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.term++
}

// LogInfo is the outcome of validating a log against its anchor.
type LogInfo struct {
	Records   []Record
	Torn      bool // a partial frame was found (and is safe to truncate)
	TornBytes int  // bytes past the last sealed record
	LastSeq   uint64
	LastTerm  uint32
	LastTag   mac.Tag
	validEnd  int // file offset of the first byte past the last sealed record
}

// frameInfo is one sealed frame's location and chained tag.
type frameInfo struct {
	off, end int
	tag      mac.Tag
	rec      *Record
}

// walker reads a log image frame by frame; it is the one frame walker
// behind Open, Tear, Frames and the Tailer. It checks the log header,
// each frame's length and chained tag (a nil key skips the tags), and
// the records' seq/term/tick discipline.
type walker struct {
	k    *mac.Keyed
	off  int // 0 until the log header has been checked
	prev mac.Tag
	seq  uint64
	term uint32
	tick uint64
}

// next returns the next sealed frame of b. ok is false at the end of b,
// at an incomplete (torn) tail frame, and with an ErrTamper error when a
// frame fails its checks.
func (w *walker) next(b []byte) (f frameInfo, ok bool, err error) {
	if w.off == 0 {
		if _, err := seal.WAL.SealedHeader(b); err != nil {
			return f, false, fmt.Errorf("log header: %w", err)
		}
		w.off, w.term = seal.HeaderSize, 1
	}
	if len(b)-w.off < 4 {
		return f, false, nil
	}
	n := int(binary.LittleEndian.Uint32(b[w.off:]))
	if n > MaxRecord {
		return f, false, fmt.Errorf("%w: frame %d declares %d bytes", ErrTamper, w.seq+1, n)
	}
	end := w.off + 4 + n + mac.Size
	if end > len(b) {
		return f, false, nil
	}
	body, tag, err := seal.WAL.OpenChained(w.k, w.prev, b[w.off+4:end])
	if err != nil {
		return f, false, fmt.Errorf("record %d: %w", w.seq+1, err)
	}
	rec, err := DecodeRecord(body)
	if err != nil {
		return f, false, fmt.Errorf("%w: record %d body", ErrTamper, w.seq+1)
	}
	if rec.Seq != w.seq+1 || rec.Term < w.term || rec.Tick < w.tick {
		return f, false, fmt.Errorf("%w: record %d discipline (seq %d term %d tick %d)",
			ErrTamper, w.seq+1, rec.Seq, rec.Term, rec.Tick)
	}
	f = frameInfo{off: w.off, end: end, tag: tag, rec: rec}
	w.off, w.prev, w.seq, w.term, w.tick = end, tag, rec.Seq, rec.Term, rec.Tick
	return f, true, nil
}

// walkFrames walks every sealed frame of a log image. torn reports an
// incomplete tail frame, which starts at validEnd.
func walkFrames(k *mac.Keyed, b []byte) (frames []frameInfo, torn bool, validEnd int, err error) {
	w := walker{k: k}
	for {
		f, ok, err := w.next(b)
		if err != nil {
			return nil, false, 0, err
		}
		if !ok {
			return frames, w.off < len(b), w.off, nil
		}
		frames = append(frames, f)
	}
}

// ValidateBytes verifies a log image against its anchor image: the
// per-record chain, the seq/term/tick discipline, and freshness. On
// success the returned LogInfo carries every sealed record plus
// torn-tail information; the caller decides whether to truncate.
func ValidateBytes(key, logB, anchorB []byte) (*LogInfo, error) {
	k, err := mac.New(key)
	if err != nil {
		return nil, err
	}
	return validate(k, logB, anchorB)
}

func validate(k *mac.Keyed, logB, anchorB []byte) (*LogInfo, error) {
	frames, torn, validEnd, err := walkFrames(k, logB)
	if err != nil {
		return nil, err
	}
	if anchorB == nil {
		return nil, fmt.Errorf("%w: anchor missing", ErrReplay)
	}
	a, err := decodeAnchor(k, anchorB)
	if err != nil {
		return nil, err
	}
	info := &LogInfo{Torn: torn, TornBytes: len(logB) - validEnd, validEnd: validEnd, LastTerm: 1}
	for _, f := range frames {
		info.Records = append(info.Records, *f.rec)
	}
	n := len(frames)
	if n > 0 {
		last := frames[n-1]
		info.LastSeq = last.rec.Seq
		info.LastTerm = last.rec.Term
		info.LastTag = last.tag
	}
	switch {
	case a.Seq == info.LastSeq:
		// Anchor and chain agree; their tags must too.
		if !a.Tag.Equal(info.LastTag) {
			return nil, fmt.Errorf("%w: anchor tag at seq %d", ErrTamper, a.Seq)
		}
	case n > 0 && a.Seq == info.LastSeq-1:
		// Crash between frame append and anchor advance: the final
		// record is sealed but unanchored. Accept it iff the anchor
		// matches its predecessor; Open repairs the anchor.
		var prevTag mac.Tag
		if n > 1 {
			prevTag = frames[n-2].tag
		}
		if !a.Tag.Equal(prevTag) {
			return nil, fmt.Errorf("%w: anchor tag at seq %d", ErrTamper, a.Seq)
		}
	case a.Seq > info.LastSeq:
		return nil, fmt.Errorf("%w: anchor at seq %d, log ends at %d", ErrReplay, a.Seq, info.LastSeq)
	default: // a.Seq < LastSeq-1
		return nil, fmt.Errorf("%w: anchor at seq %d far behind log at %d", ErrReplay, a.Seq, info.LastSeq)
	}
	return info, nil
}

// Open validates an existing WAL, recovers a torn tail by truncating to
// the last sealed record (and normalizing the anchor), and returns a
// handle positioned to append. Tampered or stale logs are refused — the
// control plane fails loudly rather than replaying a lie.
func Open(fs *vfs.FS, dir string, key []byte) (*Log, *LogInfo, error) {
	k, err := mac.New(key)
	if err != nil {
		return nil, nil, err
	}
	logB, err := fs.ReadFile(LogPath(dir))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	anchorB, _ := fs.ReadFile(AnchorPath(dir))
	info, err := validate(k, logB, anchorB)
	if err != nil {
		return nil, nil, err
	}
	node, err := fs.Lookup(LogPath(dir))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	l := &Log{fs: fs, key: k, dir: dir, node: node,
		seq: info.LastSeq, term: info.LastTerm, prevTag: info.LastTag}
	if info.Torn {
		if err := fs.TruncateNode(node, uint32(info.validEnd)); err != nil {
			return nil, nil, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
	}
	// Normalize the anchor (repairs the one-behind crash window and the
	// torn tail in one stroke).
	if err := l.writeAnchor(); err != nil {
		return nil, nil, err
	}
	return l, info, nil
}

// Tear simulates a crash mid-append for fault injection: it cuts the
// log mid-way through its final frame and rolls the anchor back to the
// predecessor record — exactly the on-disk state a director that died
// between starting a frame and advancing the anchor leaves behind.
func Tear(fs *vfs.FS, dir string, key []byte) error {
	k, err := mac.New(key)
	if err != nil {
		return err
	}
	logB, err := fs.ReadFile(LogPath(dir))
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	frames, torn, _, err := walkFrames(k, logB)
	if err != nil {
		return err
	}
	if torn || len(frames) < 2 {
		return errors.New("durable: need two sealed records to tear")
	}
	last := frames[len(frames)-1]
	cut := last.off + (last.end-last.off)/2
	node, err := fs.Lookup(LogPath(dir))
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := fs.TruncateNode(node, uint32(cut)); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	prev := frames[len(frames)-2]
	b := encodeAnchor(k, anchor{Term: prev.rec.Term, Seq: prev.rec.Seq, Tag: prev.tag})
	if err := fs.WriteFile(AnchorPath(dir), b, 0o644); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// Span is one frame's offset and total length, length prefix and tag
// included.
type Span struct{ Off, Len int }

// Frames returns the spans of a log image's frames without checking
// their tags — fault-injection tooling uses it to aim bit flips at
// record bodies.
func Frames(b []byte) []Span {
	frames, _, _, _ := walkFrames(nil, b)
	spans := make([]Span, len(frames))
	for i, f := range frames {
		spans[i] = Span{Off: f.off, Len: f.end - f.off}
	}
	return spans
}

// Tailer incrementally reads sealed records as an appender grows the
// log — the standby's view. It walks the same chain, with the same
// checks, as the validator, stopping (without error) at an incomplete
// tail frame.
type Tailer struct {
	fs  *vfs.FS
	dir string
	w   walker
}

// NewTailer starts a tailer at the beginning of dir's log.
func NewTailer(fs *vfs.FS, dir string, key []byte) (*Tailer, error) {
	k, err := mac.New(key)
	if err != nil {
		return nil, err
	}
	return &Tailer{fs: fs, dir: dir, w: walker{k: k}}, nil
}

// Tail returns every record sealed since the previous call. A chain
// break is ErrTamper; an incomplete tail frame just ends the batch.
func (t *Tailer) Tail() ([]Record, error) {
	b, err := t.fs.ReadFile(LogPath(t.dir))
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var out []Record
	for {
		f, ok, err := t.w.next(b)
		if !ok {
			return out, err
		}
		out = append(out, *f.rec)
	}
}
