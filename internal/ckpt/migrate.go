// migrate.go extends the sealed-checkpoint trust argument across nodes:
// a Migration is the envelope a checkpoint travels in when a process
// moves between kernels. The envelope wraps the inner sealed checkpoint
// with the facts that make a cross-node restore safe and binds them all
// under a second, domain-separated CMAC:
//
//   - the *epoch* the checkpoint was sealed at, repeated in the envelope
//     so tooling can route the blob without opening the inner seal (the
//     inner seal remains the trusted copy — Open cross-checks the two);
//   - the *source and destination node identities*, so an envelope
//     exported for node B cannot be imported on node C (a node-spoof):
//     the destination check runs before any inner state is touched; and
//   - the *process name*, so the importer can place the restored
//     process without trusting out-of-band metadata.
//
// What the envelope deliberately does NOT solve is replay: both seals
// verify if the same genuine envelope is delivered twice. Replay is a
// liveness-layer decision — whether the previous owner of this epoch is
// dead — and lives in the cluster's fence (trusted state held outside
// the blob, like ckpt.Store's epochs), not in the cryptography.
package ckpt

import (
	"fmt"

	"asc/internal/mac"
	"asc/internal/seal"
)

// ErrNode: the envelope is bound to a different destination node.
var ErrNode = seal.ErrNode

// migMin is the smallest envelope payload: epoch, src, dst, and the two
// length prefixes.
const migMin = 8 + 4 + 4 + 4 + 4

// Migration is one cross-node transfer of a sealed checkpoint.
type Migration struct {
	Epoch uint64
	Src   uint32 // exporting node
	Dst   uint32 // the only node allowed to import
	Name  string // process name
	Ckpt  []byte // the inner sealed checkpoint blob
}

// SealMigration serializes the envelope and seals it in the
// seal.Migration domain: magic, version, epoch, src, dst, name, inner
// blob, and a trailing CMAC over everything before it.
func SealMigration(k *mac.Keyed, m *Migration) []byte {
	e := seal.Enc{B: seal.Migration.Begin(migMin + len(m.Name) + len(m.Ckpt))}
	encodeMigration(&e, m)
	return seal.Migration.Seal(k, e.B)
}

// OpenMigration verifies the envelope seal and decodes it. Checks run
// in trust order: length, envelope seal, header and payload decode, and
// finally the epoch cross-check against the inner sealed header — a
// mismatch means the envelope was assembled around the wrong checkpoint,
// which a genuine exporter never does.
func OpenMigration(k *mac.Keyed, blob []byte) (*Migration, error) {
	p, err := seal.Migration.Open(k, blob, migMin)
	if err != nil {
		return nil, err
	}
	m, err := decodeMigration(p)
	if err != nil {
		return nil, err
	}
	inner, err := SealedEpoch(m.Ckpt)
	if err != nil {
		return nil, fmt.Errorf("%w: inner checkpoint: %v", ErrMalformed, err)
	}
	if inner != m.Epoch {
		return nil, fmt.Errorf("%w: envelope epoch %d, inner %d", ErrMalformed, m.Epoch, inner)
	}
	return m, nil
}

// DecodeMigration parses an *unsealed* envelope (a blob without its
// trailing MAC). Like DecodeState it performs no authentication —
// OpenMigration verifies the seal first — but is safe on arbitrary
// input: every length is bounds-checked before allocation, so the
// fuzzer can feed it garbage without panics or memory blowups.
func DecodeMigration(b []byte) (*Migration, error) {
	p, err := seal.Migration.SealedHeader(b)
	if err != nil {
		return nil, err
	}
	return decodeMigration(p)
}

func decodeMigration(b []byte) (*Migration, error) {
	d := seal.NewDec(b)
	m := Migration{Epoch: d.U64(), Src: d.U32(), Dst: d.U32(), Name: d.Str(), Ckpt: d.Bytes()}
	if err := d.End(ErrMalformed); err != nil {
		return nil, err
	}
	return &m, nil
}

// encodeMigration appends the envelope payload after the header.
func encodeMigration(e *seal.Enc, m *Migration) {
	e.U64(m.Epoch)
	e.U32(m.Src)
	e.U32(m.Dst)
	e.Str(m.Name)
	e.Bytes(m.Ckpt)
}
