// Package captrack implements the Section 5.3 extension: capability
// tracking policies for file descriptors.
//
// The policy "a read's descriptor must have been returned by an earlier
// open" requires runtime state: the set of currently active descriptors.
// Following the paper, the set lives in *application* memory — keeping
// heavyweight state out of the kernel — and is protected with the same
// online-memory-checker construction as the control-flow state: a MAC
// over the set contents and an in-kernel counter nonce, recomputed on
// every update, so a compromised application can neither forge nor replay
// the set.
//
// Layout in application memory at Addr:
//
//	count  uint32
//	fds    [Cap]uint32
//	mac    [16]byte
package captrack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"asc/internal/mac"
	"asc/internal/vm"
)

// Errors reported by tracker operations.
var (
	ErrTampered   = errors.New("captrack: state MAC mismatch (tampered or replayed)")
	ErrFull       = errors.New("captrack: descriptor set full")
	ErrNotTracked = errors.New("captrack: descriptor not in set")
)

// Tracker verifies and updates one process's descriptor set. The kernel
// holds only the Tracker (a counter and an address); the set itself lives
// in the application.
type Tracker struct {
	key     *mac.Keyed
	addr    uint32
	cap     int
	counter uint64

	// AESBlocks accumulates block operations for cycle accounting.
	AESBlocks int
}

// DefaultCapacity is the descriptor-set capacity used by the installer
// and kernel when capability tracking is enabled.
const DefaultCapacity = 64

// StateSize returns the in-application footprint for a set of the given
// capacity.
func StateSize(capacity int) uint32 { return 4 + 4*uint32(capacity) + mac.Size }

// InitialState renders the serialized set containing fds, sealed under
// nonce counter=0. The trusted installer embeds this in the binary's
// .auth section; the kernel attaches to it at process start.
func InitialState(key *mac.Keyed, fds []uint32, capacity int) ([]byte, error) {
	if len(fds) > capacity {
		return nil, ErrFull
	}
	raw := make([]byte, StateSize(capacity))
	binary.LittleEndian.PutUint32(raw, uint32(len(fds)))
	for i, fd := range fds {
		binary.LittleEndian.PutUint32(raw[4+4*i:], fd)
	}
	t := &Tracker{key: key, cap: capacity}
	tag, _ := t.sum(key, raw, uint32(len(fds)))
	copy(raw[4+4*capacity:], tag[:])
	return raw, nil
}

// Attach creates a tracker over an existing serialized set at addr (as
// embedded by InitialState), with the nonce counter starting at zero.
func Attach(key *mac.Keyed, addr uint32, capacity int) (*Tracker, error) {
	if capacity <= 0 || capacity > 1024 {
		return nil, fmt.Errorf("captrack: capacity %d out of range", capacity)
	}
	return &Tracker{key: key, addr: addr, cap: capacity}, nil
}

// New initializes the set (empty) in application memory and returns its
// tracker.
func New(key *mac.Keyed, mem *vm.Memory, addr uint32, capacity int) (*Tracker, error) {
	if capacity <= 0 || capacity > 1024 {
		return nil, fmt.Errorf("captrack: capacity %d out of range", capacity)
	}
	t := &Tracker{key: key, addr: addr, cap: capacity}
	if err := mem.KernelWrite(addr, make([]byte, StateSize(capacity))); err != nil {
		return nil, err
	}
	return t, t.seal(mem, nil)
}

// load reads and verifies the set.
func (t *Tracker) load(mem *vm.Memory) ([]uint32, error) {
	raw, err := mem.KernelRead(t.addr, StateSize(t.cap))
	if err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(raw)
	if int(count) > t.cap {
		return nil, ErrTampered
	}
	var tag mac.Tag
	copy(tag[:], raw[4+4*t.cap:])
	got, blocks := t.sum(t.key, raw, count)
	t.AESBlocks += blocks
	if !got.Equal(tag) {
		return nil, ErrTampered
	}
	fds := make([]uint32, count)
	for i := range fds {
		fds[i] = binary.LittleEndian.Uint32(raw[4+4*i:])
	}
	return fds, nil
}

// sum MACs the set under key: its count and live entries, which lead
// raw, then the counter nonce. It returns the tag and the AES blocks.
func (t *Tracker) sum(key *mac.Keyed, raw []byte, count uint32) (mac.Tag, int) {
	var ctr [8]byte
	binary.LittleEndian.PutUint64(ctr[:], t.counter)
	return key.Sum(raw[:4+4*count], ctr[:])
}

// seal writes the set and a fresh MAC under an incremented nonce.
func (t *Tracker) seal(mem *vm.Memory, fds []uint32) error {
	raw := make([]byte, StateSize(t.cap))
	binary.LittleEndian.PutUint32(raw, uint32(len(fds)))
	for i, fd := range fds {
		binary.LittleEndian.PutUint32(raw[4+4*i:], fd)
	}
	tag, blocks := t.sum(t.key, raw, uint32(len(fds)))
	t.AESBlocks += blocks
	copy(raw[4+4*t.cap:], tag[:])
	return mem.KernelWrite(t.addr, raw)
}

// Add records a descriptor returned by open/socket/dup.
func (t *Tracker) Add(mem *vm.Memory, fd uint32) error {
	fds, err := t.load(mem)
	if err != nil {
		return err
	}
	for _, f := range fds {
		if f == fd {
			return nil // already tracked (dup2 onto itself)
		}
	}
	if len(fds) >= t.cap {
		return ErrFull
	}
	fds = append(fds, fd)
	t.counter++
	return t.seal(mem, fds)
}

// Remove drops a descriptor on close.
func (t *Tracker) Remove(mem *vm.Memory, fd uint32) error {
	fds, err := t.load(mem)
	if err != nil {
		return err
	}
	out := fds[:0]
	found := false
	for _, f := range fds {
		if f == fd {
			found = true
			continue
		}
		out = append(out, f)
	}
	if !found {
		return ErrNotTracked
	}
	t.counter++
	return t.seal(mem, out)
}

// Counter returns the in-kernel nonce. A checkpoint seals it so restore
// can resume verification of the in-memory set.
func (t *Tracker) Counter() uint64 { return t.counter }

// SetCounter overwrites the nonce; used by checkpoint restore before
// Reseed re-verifies the restored set under it.
func (t *Tracker) SetCounter(c uint64) { t.counter = c }

// Reseed verifies the in-memory set under the current nonce, then
// re-seals it under a fresh one. Checkpoint restore calls it so that (a)
// the restored set is proven authentic before the process runs, and (b)
// pre-checkpoint copies of the set no longer verify afterwards — the
// same replay cut the memory checker's counter bump provides.
func (t *Tracker) Reseed(mem *vm.Memory) error {
	fds, err := t.load(mem)
	if err != nil {
		return err
	}
	t.counter++
	return t.seal(mem, fds)
}

// Check verifies that fd is a tracked capability (the read-policy check).
func (t *Tracker) Check(mem *vm.Memory, fd uint32) error {
	fds, err := t.load(mem)
	if err != nil {
		return err
	}
	for _, f := range fds {
		if f == fd {
			return nil
		}
	}
	return ErrNotTracked
}
