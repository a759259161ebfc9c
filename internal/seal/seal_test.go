package seal

import (
	"bytes"
	"errors"
	"testing"

	"asc/internal/mac"
)

// domains lists every domain; a new domain must be added here.
var domains = []*Domain{&Checkpoint, &Program, &Migration, &Swap, &WAL, &Anchor}

// TestDomainsDistinct: no two domains share a prefix, and no prefix is a
// prefix of another, so no MAC input of one domain is also an input of
// another.
func TestDomainsDistinct(t *testing.T) {
	for i, a := range domains {
		for j, b := range domains {
			if i != j && bytes.HasPrefix(a.prefix, b.prefix) {
				t.Errorf("domain prefix %q starts with %q", a.prefix, b.prefix)
			}
		}
	}
}

// TestTagAllocs: Tag MACs the prefix and the parts where they lie, so
// tagging a 64 KiB blob allocates nothing.
func TestTagAllocs(t *testing.T) {
	k, err := mac.New(bytes.Repeat([]byte{7}, mac.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 64<<10)
	var prev mac.Tag
	Checkpoint.Tag(k, blob) // warm the MAC scratch pool
	if n := testing.AllocsPerRun(20, func() {
		Checkpoint.Tag(k, blob)
		WAL.Tag(k, prev[:], blob)
	}); n != 0 {
		t.Errorf("Tag over a 64 KiB blob allocates %.1f times, want 0", n)
	}
}

// sealer seals and opens a payload in one domain the way its format
// does: a blob (Seal/Open), a chained frame (the WAL, first link), or a
// bare tag (Program, checked by recomputing it).
type sealer struct {
	d    *Domain
	seal func(k *mac.Keyed, p []byte) []byte
	open func(k *mac.Keyed, b []byte) ([]byte, error)
}

func sealers() []sealer {
	var out []sealer
	for _, d := range domains {
		s := sealer{d: d,
			seal: func(k *mac.Keyed, p []byte) []byte { return d.Seal(k, append(d.Begin(len(p)), p...)) },
			open: func(k *mac.Keyed, b []byte) ([]byte, error) { return d.Open(k, b, 0) },
		}
		switch d {
		case &WAL:
			s.seal = func(k *mac.Keyed, p []byte) []byte {
				b, _ := d.AppendChained(nil, k, mac.Tag{}, p)
				return b
			}
			s.open = func(k *mac.Keyed, b []byte) ([]byte, error) {
				p, _, err := d.OpenChained(k, mac.Tag{}, b)
				return p, err
			}
		case &Program:
			s.seal = func(k *mac.Keyed, p []byte) []byte {
				tag := d.Tag(k, p)
				return append(append([]byte(nil), p...), tag[:]...)
			}
			s.open = func(k *mac.Keyed, b []byte) ([]byte, error) {
				if len(b) < mac.Size || !d.Tag(k, b[:len(b)-mac.Size]).Equal(mac.Tag(b[len(b)-mac.Size:])) {
					return nil, errors.New("program tag mismatch")
				}
				return b[:len(b)-mac.Size], nil
			}
		}
		out = append(out, s)
	}
	return out
}

// FuzzOpen checks every domain through the primitive: nothing opens
// without its own domain's valid tag (whatever opens is exactly the
// sealed form of what it opened to), a sealed blob opens to its payload,
// a blob sealed in one domain never opens in another, and a flipped bit
// never opens.
func FuzzOpen(f *testing.F) {
	k, err := mac.New([]byte("seal-fuzz-key-16"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("ASCK\x02\x00\x00\x00payload"), uint16(0x0305))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint16(0xffff))
	for _, s := range sealers() {
		f.Add(s.seal(k, []byte("seed payload")), uint16(7))
	}
	ss := sealers()
	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		for i, a := range ss {
			if p, err := a.open(k, data); err == nil && !bytes.Equal(a.seal(k, p), data) {
				t.Fatalf("%q opened a blob that is not its own sealed form", a.d.prefix)
			}
			blob := a.seal(k, data)
			if p, err := a.open(k, blob); err != nil || !bytes.Equal(p, data) {
				t.Fatalf("%q: sealed payload does not open back: %v", a.d.prefix, err)
			}
			for j, b := range ss {
				if i != j {
					if _, err := b.open(k, blob); err == nil {
						t.Fatalf("blob sealed in %q opened in %q", a.d.prefix, b.d.prefix)
					}
				}
			}
			mut := append([]byte(nil), blob...)
			mut[int(flip)%len(mut)] ^= 1 << (flip >> 13)
			if _, err := a.open(k, mut); err == nil {
				t.Fatalf("%q opened a blob with a flipped bit", a.d.prefix)
			}
		}
	})
}
