package kernel

import (
	"errors"
	"testing"

	"asc/internal/ckpt"
	"asc/internal/seal"
	"asc/internal/vfs"
	"asc/internal/vm"
)

// newClusterPair builds two kernels over one shared filesystem — the
// cluster arrangement, where a file opened on one node resolves on the
// other after a migration.
func newClusterPair(t *testing.T) (src, dst *Kernel) {
	t.Helper()
	fs := vfs.New()
	for _, d := range []string{"/tmp", "/etc", "/bin", "/data"} {
		if err := fs.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	a, err := New(fs, testKey)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(fs, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestExportImportRoundTrip: a process exported mid-loop from node 1
// and imported on node 2 finishes with exactly the uninterrupted run's
// output and totals — including the open file descriptor surviving the
// hop via the shared filesystem.
func TestExportImportRoundTrip(t *testing.T) {
	exe := buildAuthExe(t, ckptLoopSrc)
	src, dst := newClusterPair(t)

	ref, err := src.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, src, ref)
	if ref.Killed || ref.Code != 0 {
		t.Fatalf("reference run failed: killed=%v code=%d", ref.Killed, ref.Code)
	}

	p, err := src.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(p, ref.CPU.Cycles/2); !errors.Is(err, vm.ErrCycleLimit) {
		t.Fatalf("slice run: err = %v, want cycle limit", err)
	}
	env, inner, err := src.Export(p, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ep, err := ckpt.SealedEpoch(inner); err != nil || ep != 1 {
		t.Fatalf("inner blob epoch = %d, %v; want 1", ep, err)
	}

	r, err := dst.Import(exe, 2, env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CPU.Cycles != p.CPU.Cycles {
		t.Errorf("imported cycles %d, exported at %d", r.CPU.Cycles, p.CPU.Cycles)
	}
	runToCompletion(t, dst, r)
	if r.Killed {
		t.Fatalf("imported process killed: %v", r.KilledBy)
	}
	if r.Output() != ref.Output() {
		t.Errorf("output %q, want %q", r.Output(), ref.Output())
	}
	if r.CPU.Cycles != ref.CPU.Cycles || r.SyscallCount != ref.SyscallCount {
		t.Errorf("totals diverged: cycles %d/%d syscalls %d/%d",
			r.CPU.Cycles, ref.CPU.Cycles, r.SyscallCount, ref.SyscallCount)
	}
}

// TestImportRejections: each way an import can be wrong dies with its
// own classified error, before any process state exists.
func TestImportRejections(t *testing.T) {
	exe := buildAuthExe(t, ckptLoopSrc)
	src, dst := newClusterPair(t)

	p, err := src.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(p, 2000); !errors.Is(err, vm.ErrCycleLimit) {
		t.Fatalf("slice run: err = %v", err)
	}
	env, _, err := src.Export(p, 5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		self   uint32
		epoch  uint64
		mangle func([]byte) []byte
		want   error
		reason string
	}{
		{"node spoof", 3, 5, nil, ckpt.ErrNode, seal.ReasonNode},
		{"epoch mismatch", 2, 6, nil, ckpt.ErrEpoch, seal.ReasonEpoch},
		{"tampered envelope", 2, 5,
			func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
			ckpt.ErrSeal, seal.ReasonSeal},
		{"truncated envelope", 2, 5,
			func(b []byte) []byte { return b[:8] },
			ckpt.ErrTruncated, seal.ReasonTruncated},
	}
	for _, tc := range cases {
		blob := append([]byte(nil), env...)
		if tc.mangle != nil {
			blob = tc.mangle(blob)
		}
		_, err := dst.Import(exe, tc.self, blob, tc.epoch)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if got := seal.Reason(err); got != tc.reason {
			t.Errorf("%s: reason = %q, want %q", tc.name, got, tc.reason)
		}
	}

	// The genuine envelope still imports after all the rejected
	// attempts — rejection is side-effect-free.
	if _, err := dst.Import(exe, 2, env, 5); err != nil {
		t.Fatalf("clean import after rejections: %v", err)
	}
}

// TestPeekMigration: staging decodes the envelope header without
// building process state, and verifies the seal first.
func TestPeekMigration(t *testing.T) {
	exe := buildAuthExe(t, ckptLoopSrc)
	src, dst := newClusterPair(t)
	p, err := src.Spawn(exe, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(p, 2000); !errors.Is(err, vm.ErrCycleLimit) {
		t.Fatalf("slice run: err = %v", err)
	}
	env, _, err := src.Export(p, 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dst.PeekMigration(env)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 3 || m.Src != 1 || m.Dst != 2 || m.Name != "test" {
		t.Fatalf("peek = %+v", m)
	}
	env[0] ^= 1
	if _, err := dst.PeekMigration(env); !errors.Is(err, ckpt.ErrSeal) {
		t.Fatalf("tampered peek: err = %v, want ErrSeal", err)
	}
}
