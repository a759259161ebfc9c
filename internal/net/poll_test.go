package net

import (
	"bytes"
	"sync"
	"testing"
)

func TestPollFDRoundTrip(t *testing.T) {
	set := []PollFD{
		{FD: 3, Events: POLLIN},
		{FD: 4, Events: POLLIN | POLLOUT, REvents: POLLOUT},
		{FD: 0xffffffff, Events: 0xffff, REvents: 0xffff},
	}
	b := EncodePollSet(set)
	if len(b) != len(set)*PollFDSize {
		t.Fatalf("encoded length %d, want %d", len(b), len(set)*PollFDSize)
	}
	got, err := DecodePollSet(b)
	if err != nil {
		t.Fatalf("DecodePollSet: %v", err)
	}
	for i := range set {
		if got[i] != set[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], set[i])
		}
	}
	if !bytes.Equal(EncodePollSet(got), b) {
		t.Errorf("re-encode mismatch")
	}
	if _, err := DecodePollSet(b[:5]); err == nil {
		t.Errorf("ragged length accepted")
	}
	if _, err := DecodePollSet(make([]byte, (MaxPollFDs+1)*PollFDSize)); err == nil {
		t.Errorf("oversized set accepted")
	}
	if fds, err := DecodePollSet(nil); err != nil || len(fds) != 0 {
		t.Errorf("empty set: %v, %v", fds, err)
	}
}

func TestPollReadiness(t *testing.T) {
	n := New()
	l, err := n.Listen(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	lisIn := []PollEntry{{Lis: l, WantIn: true}}
	if got := n.Poll(lisIn, false, nil); got != 0 {
		t.Fatalf("empty listener ready = %d", got)
	}
	c, err := n.Dial(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Poll(lisIn, false, nil); got != 1 || !lisIn[0].In {
		t.Fatalf("pending listener ready = %d, in=%v", got, lisIn[0].In)
	}
	s, err := l.Accept(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh conn: writable, not readable.
	es := []PollEntry{{Conn: s, WantIn: true, WantOut: true}}
	if got := n.Poll(es, false, nil); got != 1 || es[0].In || !es[0].Out {
		t.Fatalf("fresh conn: ready=%d in=%v out=%v", got, es[0].In, es[0].Out)
	}
	// Data arrives: readable too.
	if err := c.Send(nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := n.Poll(es, false, nil); got != 1 || !es[0].In || !es[0].Out {
		t.Fatalf("data conn: ready=%d in=%v out=%v", got, es[0].In, es[0].Out)
	}
	// Fill the peer's inbox: not writable (each message counts its bytes).
	big := make([]byte, MaxMessage)
	for i := 0; i < connBuffer/MaxMessage; i++ {
		if err := s.Send(nil, big); err != nil {
			t.Fatalf("fill send %d: %v", i, err)
		}
	}
	if got := n.Poll([]PollEntry{{Conn: s, WantOut: true}}, false, nil); got != 0 {
		t.Fatalf("full peer still writable")
	}
	// Peer closes: both readable (EOF) and "writable" (ErrReset, no park).
	c.Close()
	if got := n.Poll(es, false, nil); got != 1 || !es[0].In || !es[0].Out {
		t.Fatalf("peer-closed conn: ready=%d in=%v out=%v", got, es[0].In, es[0].Out)
	}
	// Own close: ready for whatever is asked.
	s.Close()
	if got := n.Poll(es, false, nil); got != 1 || !es[0].In || !es[0].Out {
		t.Fatalf("closed conn: ready=%d in=%v out=%v", got, es[0].In, es[0].Out)
	}

	// Static and invalid entries always count; unresolved never does.
	mixed := []PollEntry{
		{Static: true, WantIn: true},
		{Invalid: true},
		{WantIn: true, WantOut: true}, // unconnected socket: no object
	}
	if got := n.Poll(mixed, false, nil); got != 2 || !mixed[0].In || mixed[2].In || mixed[2].Out {
		t.Fatalf("mixed = %d, %+v", got, mixed)
	}
	// Closed listener is accept-ready (Accept fails without parking).
	l.Close()
	if got := n.Poll(lisIn, false, nil); got != 1 || !lisIn[0].In {
		t.Fatalf("closed listener ready = %d", got)
	}
}

// TestPollBlocking parks a gated poller on an idle pair and checks a
// send wakes it with the right readiness bits.
func TestPollBlocking(t *testing.T) {
	n := New()
	a, b := n.Pair()
	gate := make(chanGate, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		gate.Enter()
		defer gate.Leave()
		es := []PollEntry{{Conn: b, WantIn: true}}
		if got := n.Poll(es, true, gate); got != 1 || !es[0].In {
			t.Errorf("blocking poll = %d, in=%v", got, es[0].In)
			return
		}
		msg, err := b.Recv(gate)
		if err != nil || string(msg) != "wake" {
			t.Errorf("Recv after poll = %q, %v", msg, err)
		}
	}()
	go func() {
		defer wg.Done()
		gate.Enter()
		defer gate.Leave()
		if err := a.Send(gate, []byte("wake")); err != nil {
			t.Errorf("Send: %v", err)
		}
	}()
	wg.Wait()
	// Nil gate never parks, even with block requested.
	if got := n.Poll([]PollEntry{{Conn: a, WantIn: true}}, true, nil); got != 0 {
		t.Fatalf("nil-gate blocking poll = %d, want 0", got)
	}
}
