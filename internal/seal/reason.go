package seal

import "errors"

// Canonical rejection reasons, as supervisor statistics, the cluster and
// the fault campaign report them.
const (
	ReasonTruncated = "truncated"
	ReasonSeal      = "seal-mismatch"
	ReasonMalformed = "malformed"
	ReasonEpoch     = "epoch-replay"
	ReasonProgram   = "program-mismatch"
	ReasonState     = "state-mismatch"
	ReasonNode      = "node-mismatch"
	ReasonTamper    = "wal-tamper"
	ReasonReplay    = "wal-replay"
	ReasonOther     = "other"
)

// Rejection classes of sealed state. Packages ckpt and durable export
// them under the same names; each message names the layer that reports
// it.
var (
	// ErrTruncated: a checkpoint or envelope too short to hold its header
	// and tag — a torn write lost the tail.
	ErrTruncated = errors.New("ckpt: checkpoint truncated")
	// ErrSeal: the CMAC over a checkpoint or envelope does not verify
	// (bit flip, torn write, or forgery).
	ErrSeal = errors.New("ckpt: seal mismatch")
	// ErrMalformed: the seal verified but the payload does not decode —
	// an encoder/decoder version skew, never an attack (a sealed blob is
	// authentic by construction).
	ErrMalformed = errors.New("ckpt: malformed checkpoint")
	// ErrEpoch: the sealed epoch is not the one the restorer expected —
	// a stale checkpoint replayed into a newer slot.
	ErrEpoch = errors.New("ckpt: epoch mismatch (stale or replayed checkpoint)")
	// ErrProgram: the sealed program tag belongs to a different
	// executable — a cross-process checkpoint swap.
	ErrProgram = errors.New("ckpt: checkpoint sealed for a different program")
	// ErrState: the blob verified and decoded but the restored state
	// failed its own re-verification (CF-state MAC, capability set, or
	// an environment mismatch such as a missing file).
	ErrState = errors.New("ckpt: restored state failed re-verification")
	// ErrNode: a migration envelope bound to a different destination
	// node — an import under the wrong node identity (node-spoof).
	ErrNode = errors.New("ckpt: migration bound to a different node")
	// ErrSwapFrame: a swap frame too short, or of the wrong magic or
	// version.
	ErrSwapFrame = errors.New("ckpt: malformed swap frame")
	// ErrSwapSeal: a swap frame's seal does not verify (bit flip,
	// truncation of sealed bytes, another owner's frame).
	ErrSwapSeal = errors.New("ckpt: swap frame seal mismatch")
	// ErrTamper: a WAL record's chained tag does not verify, or the
	// anchor disagrees with the chain it supposedly sealed.
	ErrTamper = errors.New("durable: WAL tampered")
	// ErrReplay: the WAL chain verifies but the anchor points past the
	// last record — a stale snapshot of the log presented as current.
	ErrReplay = errors.New("durable: stale WAL (anchor ahead of log)")
)

// reasons is the one error → reason table, in the order Reason tries it.
var reasons = []struct {
	err    error
	reason string
}{
	{ErrTruncated, ReasonTruncated},
	{ErrSeal, ReasonSeal},
	{ErrMalformed, ReasonMalformed},
	{ErrEpoch, ReasonEpoch},
	{ErrProgram, ReasonProgram},
	{ErrState, ReasonState},
	{ErrNode, ReasonNode},
	{ErrTamper, ReasonTamper},
	{ErrReplay, ReasonReplay},
}

// Reason classifies a rejection into its canonical string: "" for nil,
// ReasonOther for an error of no class.
func Reason(err error) string {
	if err == nil {
		return ""
	}
	for _, r := range reasons {
		if errors.Is(err, r.err) {
			return r.reason
		}
	}
	return ReasonOther
}
