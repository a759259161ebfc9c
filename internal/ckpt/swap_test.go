package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"asc/internal/mac"
	"asc/internal/seal"
)

func swapKey(t *testing.T) *mac.Keyed {
	t.Helper()
	k, err := mac.New([]byte("swap-frame-test-"))
	if err != nil {
		t.Fatalf("mac.New: %v", err)
	}
	return k
}

func testFrame() *SwapFrame {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	return &SwapFrame{Owner: 42, Page: 7, Gen: 3, Data: data}
}

func TestSwapFrameRoundTrip(t *testing.T) {
	k := swapKey(t)
	f := testFrame()
	blob := SealSwapFrame(k, f)
	got, err := OpenSwapFrame(k, 42, 7, 3, blob)
	if err != nil {
		t.Fatalf("OpenSwapFrame: %v", err)
	}
	if !bytes.Equal(got.Data, f.Data) {
		t.Fatalf("data mismatch after round trip")
	}
}

// TestSwapFrameGolden pins the wire bytes of sealed frames, keyed and
// unkeyed, so changes to how a frame is built cannot change what it is.
func TestSwapFrameGolden(t *testing.T) {
	k := swapKey(t)
	small := &SwapFrame{Owner: 0x0102030405060708, Page: 9, Gen: 0x1122334455667788, Data: []byte("golden")}
	for _, tc := range []struct {
		name string
		key  *mac.Keyed
		want string
	}{
		{"keyed", k, "4153535701000000080706050403020109000000887766554433221106000000676f6c64656e" +
			"e204805720b55ee1a50dc1c2685d002a"},
		{"plain", nil, "4153535701000000080706050403020109000000887766554433221106000000676f6c64656e" +
			"00000000000000000000000000000000"},
	} {
		if got := hex.EncodeToString(SealSwapFrame(tc.key, small)); got != tc.want {
			t.Errorf("%s frame = %s, want %s", tc.name, got, tc.want)
		}
	}
	sum := sha256.Sum256(SealSwapFrame(k, testFrame()))
	if got, want := hex.EncodeToString(sum[:]), "d8cd2328e1775c02dc52208c99fd0d957e72c216e1148b7e7794e62d95d44367"; got != want {
		t.Errorf("4 KiB frame sha256 = %s, want %s", got, want)
	}
}

// TestSwapFrameSealAllocs pins sealing to one allocation: the frame
// buffer, which also carries the MAC input.
func TestSwapFrameSealAllocs(t *testing.T) {
	k := swapKey(t)
	f := testFrame()
	if n := testing.AllocsPerRun(50, func() { SealSwapFrame(k, f) }); n > 1 {
		t.Fatalf("SealSwapFrame allocates %.1f times, want 1", n)
	}
}

func TestSwapFrameDetectsBitFlip(t *testing.T) {
	k := swapKey(t)
	blob := SealSwapFrame(k, testFrame())
	for _, off := range []int{0, 9, seal.HeaderSize + swapPayloadSize + 100, len(blob) - 1} {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		_, err := OpenSwapFrame(k, 42, 7, 3, mut)
		if err == nil {
			t.Fatalf("flip at %d accepted", off)
		}
		if !errors.Is(err, ErrSwapSeal) && !errors.Is(err, ErrSwapFrame) {
			t.Fatalf("flip at %d: %v, want seal/frame error", off, err)
		}
	}
}

func TestSwapFrameDetectsReplay(t *testing.T) {
	k := swapKey(t)
	f := testFrame()
	stale := SealSwapFrame(k, f)
	// Kernel has since evicted generation 4; the gen-3 frame is stale.
	if _, err := OpenSwapFrame(k, 42, 7, 4, stale); !errors.Is(err, ErrSwapStale) {
		t.Fatalf("stale generation: %v, want ErrSwapStale", err)
	}
	// A genuine frame from another slot is cross-slot replay.
	if _, err := OpenSwapFrame(k, 42, 8, 3, stale); !errors.Is(err, ErrSwapStale) {
		t.Fatalf("wrong page: %v, want ErrSwapStale", err)
	}
	if _, err := OpenSwapFrame(k, 41, 7, 3, stale); !errors.Is(err, ErrSwapStale) {
		t.Fatalf("wrong owner: %v, want ErrSwapStale", err)
	}
}

func TestSwapFrameTruncation(t *testing.T) {
	k := swapKey(t)
	blob := SealSwapFrame(k, testFrame())
	for _, n := range []int{0, 4, seal.HeaderSize + swapPayloadSize, len(blob) - 1} {
		if _, err := OpenSwapFrame(k, 42, 7, 3, blob[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
}

func TestSwapFrameNilKey(t *testing.T) {
	f := testFrame()
	blob := SealSwapFrame(nil, f)
	got, err := OpenSwapFrame(nil, 42, 7, 3, blob)
	if err != nil {
		t.Fatalf("nil-key round trip: %v", err)
	}
	if !bytes.Equal(got.Data, f.Data) {
		t.Fatalf("nil-key data mismatch")
	}
	// Freshness still enforced without a key.
	if _, err := OpenSwapFrame(nil, 42, 7, 9, blob); !errors.Is(err, ErrSwapStale) {
		t.Fatalf("nil-key stale frame: %v, want ErrSwapStale", err)
	}
	// An unauthenticated frame must not open under a keyed kernel.
	k := swapKey(t)
	if _, err := OpenSwapFrame(k, 42, 7, 3, blob); !errors.Is(err, ErrSwapSeal) {
		t.Fatalf("unauthenticated frame under keyed open: %v, want ErrSwapSeal", err)
	}
}

func FuzzSwapFrameDecode(f *testing.F) {
	k, err := mac.New([]byte("swap-frame-fuzz-"))
	if err != nil {
		f.Fatalf("mac.New: %v", err)
	}
	f.Add(SealSwapFrame(k, testFrame()))
	f.Add(SealSwapFrame(nil, &SwapFrame{Owner: 1, Page: 0, Gen: 1, Data: []byte{1, 2, 3}}))
	f.Add([]byte("ASSW"))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Must never panic; anything that opens must carry the exact
		// binding it was asked for.
		for _, key := range []*mac.Keyed{nil, k} {
			got, err := OpenSwapFrame(key, 42, 7, 3, b)
			if err != nil {
				continue
			}
			if got.Owner != 42 || got.Page != 7 || got.Gen != 3 {
				t.Fatalf("opened frame with wrong binding: %+v", got)
			}
		}
	})
}
