// store.go is the persistent half of the checkpoint-store protocol: the
// same trusted-epoch bookkeeping as ckpt.Store, but keyed (name, epoch)
// on the cluster's durable filesystem so it survives the director
// process itself. The trusted epochs live in the store's directory
// entries — control-plane metadata maintained by the director and its
// standby — never inside the blobs, so a blob replayed into a newer
// epoch's slot is still caught by the restorer's epoch expectation.
package durable

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"asc/internal/ckpt"
	"asc/internal/vfs"
)

// Store is a VFS-backed monotonic checkpoint chain for one process.
// Safe for concurrent use except for the Tamper hook, which must be
// installed before the store is shared.
type Store struct {
	// Tamper mirrors ckpt.Store's at-rest corruption hook: when
	// non-nil, it may replace each entry's blob as Chain() hands it
	// out. The stored files are never modified.
	Tamper func(chain []ckpt.Entry, i int) []byte

	mu  sync.Mutex
	fs  *vfs.FS
	dir string
}

// StoreDir locates one process's store under a durable directory.
func StoreDir(dir, name string) string { return dir + "/store/" + name }

// EpochPath locates one sealed checkpoint file inside a store
// directory. Exported for fault injection (at-rest blob replacement).
func EpochPath(dir string, epoch uint64) string {
	return fmt.Sprintf("%s/ep-%020d", dir, epoch)
}

// OpenStore opens (or creates) the store rooted at dir. Reopening an
// existing directory — the takeover path — resumes its epochs.
func OpenStore(fs *vfs.FS, dir string) (*Store, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: store %s: %w", dir, err)
	}
	return &Store{fs: fs, dir: dir}, nil
}

// epochs returns the stored epochs in ascending order.
func (s *Store) epochs() []uint64 {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []uint64
	for _, n := range names {
		if len(n) < 4 || n[:3] != "ep-" {
			continue
		}
		e, err := strconv.ParseUint(n[3:], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Put writes a checkpoint under a strictly increasing epoch.
func (s *Store) Put(epoch uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	eps := s.epochs()
	if n := len(eps); n > 0 && epoch <= eps[n-1] {
		return fmt.Errorf("%w: %d after %d", ckpt.ErrEpochOrder, epoch, eps[n-1])
	}
	if err := s.fs.WriteFile(EpochPath(s.dir, epoch), blob, 0o644); err != nil {
		return fmt.Errorf("durable: store put: %w", err)
	}
	return nil
}

// Len returns the number of stored checkpoints.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.epochs())
}

// NewestEpoch returns the highest stored epoch (0 when empty).
func (s *Store) NewestEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	eps := s.epochs()
	if len(eps) == 0 {
		return 0
	}
	return eps[len(eps)-1]
}

// Chain returns the fallback chain, newest first, with the same
// contract as ckpt.Store.Chain: epochs come from the store's own
// bookkeeping, and blobs pass through the Tamper hook when installed.
func (s *Store) Chain() []ckpt.Entry {
	s.mu.Lock()
	eps := s.epochs()
	pristine := make([]ckpt.Entry, 0, len(eps))
	for i := len(eps) - 1; i >= 0; i-- {
		blob, err := s.fs.ReadFile(EpochPath(s.dir, eps[i]))
		if err != nil {
			continue
		}
		pristine = append(pristine, ckpt.Entry{Epoch: eps[i], Blob: blob})
	}
	tamper := s.Tamper
	s.mu.Unlock()
	out := make([]ckpt.Entry, len(pristine))
	copy(out, pristine)
	if tamper != nil {
		for i := range out {
			out[i].Blob = tamper(pristine, i)
		}
	}
	return out
}

// Prune unlinks every checkpoint file except the newest keep, returning
// how many were dropped — the bound on superseded epochs. keep <= 0 empties the store; keep >= Len is a no-op.
func (s *Store) Prune(keep int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if keep < 0 {
		keep = 0
	}
	eps := s.epochs()
	drop := len(eps) - keep
	if drop <= 0 {
		return 0
	}
	for _, e := range eps[:drop] {
		_ = s.fs.Unlink(EpochPath(s.dir, e))
	}
	return drop
}
