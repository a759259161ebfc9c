package mac

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// RFC 4493 test vectors for AES-128 CMAC.
func TestRFC4493Vectors(t *testing.T) {
	key := "2b7e151628aed2a6abf7158809cf4f3c"
	full := "6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710"
	tests := []struct {
		name   string
		msgLen int
		want   string
	}{
		{"empty", 0, "bb1d6929e95937287fa37d129b756746"},
		{"one block", 16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{"40 bytes", 40, "dfa66747de9ae63030ca32611497c827"},
		{"64 bytes", 64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	k, err := New(mustHex(t, key))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	msg := mustHex(t, full)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _ := k.Sum(msg[:tt.msgLen])
			if want := mustHex(t, tt.want); !bytes.Equal(got[:], want) {
				t.Errorf("Sum = %x, want %x", got[:], want)
			}
		})
	}
}

func TestNewRejectsBadKey(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 24, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key: want error, got nil", n)
		}
	}
}

func TestVerify(t *testing.T) {
	k, err := New(make([]byte, KeySize))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	msg := []byte("authenticated system calls")
	tag, _ := k.Sum(msg)
	if ok, _ := k.Verify(msg, tag); !ok {
		t.Error("Verify of valid tag failed")
	}
	bad := tag
	bad[0] ^= 1
	if ok, _ := k.Verify(msg, bad); ok {
		t.Error("Verify accepted corrupted tag")
	}
	if ok, _ := k.Verify(append(msg, 'x'), tag); ok {
		t.Error("Verify accepted extended message")
	}
}

func TestBlocksMatchesSum(t *testing.T) {
	k, err := New(make([]byte, KeySize))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for n := 0; n <= 4*Size+3; n++ {
		_, got := k.Sum(make([]byte, n))
		if want := Blocks(n); got != want {
			t.Errorf("len %d: Sum did %d block ops, Blocks predicts %d", n, got, want)
		}
	}
}

func TestTagEqualConstantTimeSemantics(t *testing.T) {
	var a, b Tag
	if !a.Equal(b) {
		t.Error("zero tags should be equal")
	}
	b[15] = 1
	if a.Equal(b) {
		t.Error("distinct tags reported equal")
	}
}

// Property: any single-bit flip in the message changes the tag.
func TestPropertyBitFlipChangesTag(t *testing.T) {
	k, err := New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := func(msg []byte, pos uint16, bit uint8) bool {
		if len(msg) == 0 {
			return true
		}
		orig, _ := k.Sum(msg)
		flipped := append([]byte(nil), msg...)
		flipped[int(pos)%len(flipped)] ^= 1 << (bit % 8)
		if bytes.Equal(flipped, msg) {
			return true
		}
		mutated, _ := k.Sum(flipped)
		return !orig.Equal(mutated)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: tags are deterministic and key-dependent.
func TestPropertyKeySeparation(t *testing.T) {
	k1, _ := New([]byte("0123456789abcdef"))
	k2, _ := New([]byte("fedcba9876543210"))
	f := func(msg []byte) bool {
		a1, _ := k1.Sum(msg)
		a2, _ := k1.Sum(msg)
		b, _ := k2.Sum(msg)
		return a1.Equal(a2) && !a1.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func benchSum(b *testing.B, n int) {
	k, _ := New(make([]byte, KeySize))
	msg := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Sum(msg)
	}
}

func BenchmarkSum64(b *testing.B) { benchSum(b, 64) }

// BenchmarkSum4K is one swap frame's worth of message.
func BenchmarkSum4K(b *testing.B) { benchSum(b, 4096) }

// BenchmarkSum256K is the size of a whole stack segment.
func BenchmarkSum256K(b *testing.B) { benchSum(b, 256<<10) }

// refSum is CMAC with the chain computed one block at a time through
// cipher.Block: the reference the bulk CBC pass must match.
func refSum(k *Keyed, msg []byte) (Tag, int) {
	var x, last [Size]byte
	n := chained(len(msg))
	for off := 0; off < n; off += Size {
		for i := range x {
			x[i] ^= msg[off+i]
		}
		k.block.Encrypt(x[:], x[:])
	}
	tail := copy(last[:], msg[n:])
	sub := k.k1
	if tail < Size {
		last[tail] = 0x80
		sub = k.k2
	}
	for i := range x {
		x[i] ^= last[i] ^ sub[i]
	}
	k.block.Encrypt(x[:], x[:])
	return Tag(x), n/Size + 1
}

// TestBulkMatchesPerBlock: the bulk CBC pass gives the per-block tag and
// block count at every length up to past one chunk, and at lengths that
// span many chunks; Precompute and SumFrom resume it exactly.
func TestBulkMatchesPerBlock(t *testing.T) {
	k, err := New(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 300_000)
	for i := range msg {
		msg[i] = byte(i*7 + i>>8)
	}
	lengths := []int{65_536, 300_000}
	for n := 0; n <= 4_200; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		want, wantBlocks := refSum(k, msg[:n])
		got, blocks := k.Sum(msg[:n])
		if got != want || blocks != wantBlocks || blocks != Blocks(n) {
			t.Fatalf("len %d: Sum = %s/%d blocks, per-block %s/%d, Blocks %d",
				n, got, blocks, want, wantBlocks, Blocks(n))
		}
	}
	for _, n := range []int{4_097, 65_536, 300_000} {
		st, pre := k.Precompute(msg[:n])
		got, tail := k.SumFrom(st, msg[:n])
		want, wantBlocks := refSum(k, msg[:n])
		if got != want || pre+tail != wantBlocks {
			t.Fatalf("len %d: Precompute+SumFrom = %s/%d blocks, want %s/%d", n, got, pre+tail, want, wantBlocks)
		}
	}
}

// TestConcurrentSum hammers one Keyed from many goroutines, checking every
// tag against a per-goroutine precomputed answer. The scratch-block pool
// inside Sum must not leak state between concurrent computations; run with
// -race to check the documented concurrency contract.
func TestConcurrentSum(t *testing.T) {
	k, err := New(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 2000
	// Distinct message per goroutine, lengths straddling block bounds.
	msgs := make([][]byte, goroutines)
	want := make([]Tag, goroutines)
	for g := range msgs {
		msg := make([]byte, 5+g*7)
		for i := range msg {
			msg[i] = byte(g*31 + i)
		}
		msgs[g] = msg
		want[g], _ = k.Sum(msg)
	}
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < iters; i++ {
				got, _ := k.Sum(msgs[g])
				if !got.Equal(want[g]) {
					done <- fmt.Errorf("goroutine %d iter %d: Sum corrupted", g, i)
					return
				}
				if ok, _ := k.Verify(msgs[g], want[g]); !ok {
					done <- fmt.Errorf("goroutine %d iter %d: Verify corrupted", g, i)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSumAllocs pins the scratch-pool win: a warm Keyed computes tags
// without heap allocation.
func TestSumAllocs(t *testing.T) {
	k, err := New(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 80)
	k.Sum(msg) // warm the pool
	allocs := testing.AllocsPerRun(200, func() { k.Sum(msg) })
	if allocs > 0 {
		t.Errorf("Sum allocates %.1f times per call, want 0", allocs)
	}
}

// SumFrom resumed from a matching precomputed prefix must equal Sum, and
// must charge only the tail blocks.
func TestSumFromMatchesSum(t *testing.T) {
	k, err := New(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 64, 100, 257} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*7 + n)
		}
		st, preBlocks := k.Precompute(msg)
		want, wantBlocks := k.Sum(msg)
		got, tailBlocks := k.SumFrom(st, msg)
		if got != want {
			t.Errorf("len %d: SumFrom tag %s, want %s", n, got, want)
		}
		if preBlocks+tailBlocks != wantBlocks {
			t.Errorf("len %d: precompute %d + tail %d blocks, Sum did %d",
				n, preBlocks, tailBlocks, wantBlocks)
		}
		if n > Size && tailBlocks != 1 {
			t.Errorf("len %d: tail charged %d blocks, want 1", n, tailBlocks)
		}
	}
}

// A stale prefix (live bytes changed since Precompute) must fall back to
// a full, correct Sum — never a resumed tag over the wrong bytes.
func TestSumFromStalePrefix(t *testing.T) {
	k, err := New(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 100)
	for i := range msg {
		msg[i] = byte(i)
	}
	st, _ := k.Precompute(msg)
	msg[3] ^= 0x40 // mutate inside the absorbed prefix
	want, wantBlocks := k.Sum(msg)
	got, blocks := k.SumFrom(st, msg)
	if got != want {
		t.Errorf("stale prefix: SumFrom tag %s, want full Sum %s", got, want)
	}
	if blocks != wantBlocks {
		t.Errorf("stale prefix: charged %d blocks, want full %d", blocks, wantBlocks)
	}
	// Shrinking the message below the absorbed length must also fall back.
	short := msg[:10]
	want, _ = k.Sum(short)
	if got, _ := k.SumFrom(st, short); got != want {
		t.Errorf("short message: SumFrom tag %s, want %s", got, want)
	}
	if got, _ := k.SumFrom(nil, msg); got != k.mustSum(msg) {
		t.Errorf("nil state: SumFrom diverged from Sum")
	}
}

func (k *Keyed) mustSum(msg []byte) Tag {
	tag, _ := k.Sum(msg)
	return tag
}

// SumBatch must produce exactly the per-message Sum tags and the summed
// block count.
func TestSumBatchMatchesSum(t *testing.T) {
	k, err := New(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	var msgs [][]byte
	wantBlocks := 0
	var want []Tag
	for _, n := range []int{0, 1, 12, 16, 17, 48, 100} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i ^ n)
		}
		msgs = append(msgs, msg)
		tag, b := k.Sum(msg)
		want = append(want, tag)
		wantBlocks += b
	}
	got, blocks := k.SumBatch(msgs, nil)
	if len(got) != len(want) {
		t.Fatalf("SumBatch returned %d tags, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("msg %d: batch tag %s, want %s", i, got[i], want[i])
		}
	}
	if blocks != wantBlocks {
		t.Errorf("batch blocks %d, want %d", blocks, wantBlocks)
	}
	// Appending into a preallocated dst must reuse it.
	dst := make([]Tag, 0, len(msgs))
	out, _ := k.SumBatch(msgs, dst)
	if &out[0] != &dst[:1][0] {
		t.Error("SumBatch reallocated a dst with sufficient capacity")
	}
	if _, blocks := k.SumBatch(nil, nil); blocks != 0 {
		t.Errorf("empty batch charged %d blocks", blocks)
	}
}

// TestSumParts: a message split into parts at any boundaries, empty parts
// included, has the tag and block count of the joined message.
func TestSumParts(t *testing.T) {
	k, err := New(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 16, 17, 255, 256, 257, 600} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*13 + n)
		}
		want, wantBlocks := k.Sum(msg)
		for _, cuts := range [][2]int{{0, 0}, {0, n}, {n / 3, n / 2}, {1, n - 1}, {n / 2, n / 2}} {
			a, b := min(cuts[0], n), min(max(cuts[1], cuts[0]), n)
			got, blocks := k.Sum(msg[:a], nil, msg[a:b], msg[b:])
			if got != want || blocks != wantBlocks {
				t.Errorf("n=%d cuts %v: %s (%d blocks), want %s (%d)", n, cuts, got, blocks, want, wantBlocks)
			}
		}
	}
}
