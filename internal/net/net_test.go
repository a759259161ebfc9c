package net

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestListenDialAccept(t *testing.T) {
	n := New()
	l, err := n.Listen(7, 8)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := n.Listen(7, 8); err != ErrInUse {
		t.Fatalf("second Listen = %v, want ErrInUse", err)
	}
	c, err := n.Dial(7, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	s, err := l.Accept(nil)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if c.RemotePort() != 7 || s.LocalPort() != 7 {
		t.Errorf("ports: client remote %d, server local %d, want 7/7", c.RemotePort(), s.LocalPort())
	}
	if c.LocalPort() != s.RemotePort() || c.LocalPort() < ephemeralBase {
		t.Errorf("ephemeral port mismatch: %d vs %d", c.LocalPort(), s.RemotePort())
	}
	if err := c.Send(nil, []byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg, err := s.Recv(nil)
	if err != nil || !bytes.Equal(msg, []byte("ping")) {
		t.Fatalf("Recv = %q, %v", msg, err)
	}
}

func TestMessageFraming(t *testing.T) {
	n := New()
	a, b := n.Pair()
	for i := 0; i < 3; i++ {
		if err := a.Send(nil, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Three sends are three messages, never coalesced.
	for i := 0; i < 3; i++ {
		msg, err := b.Recv(nil)
		if err != nil || string(msg) != fmt.Sprintf("m%d", i) {
			t.Fatalf("Recv %d = %q, %v", i, msg, err)
		}
	}
	if _, err := b.Recv(nil); err != ErrWouldBlock {
		t.Fatalf("empty Recv without gate = %v, want ErrWouldBlock", err)
	}
}

func TestDialRefusedAndBacklog(t *testing.T) {
	n := New()
	if _, err := n.Dial(9, nil); err != ErrRefused {
		t.Fatalf("Dial unbound = %v, want ErrRefused", err)
	}
	l, err := n.Listen(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial(9, nil); err != nil {
		t.Fatalf("first Dial: %v", err)
	}
	if _, err := n.Dial(9, nil); err != ErrWouldBlock {
		t.Fatalf("Dial into full backlog = %v, want ErrWouldBlock", err)
	}
	if _, err := l.Accept(nil); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if _, err := n.Dial(9, nil); err != nil {
		t.Fatalf("Dial after drain: %v", err)
	}
	l.Close()
	if _, err := n.Dial(9, nil); err != ErrRefused {
		t.Fatalf("Dial closed = %v, want ErrRefused", err)
	}
	if _, err := l.Accept(nil); err != ErrClosed {
		t.Fatalf("Accept closed = %v, want ErrClosed", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	n := New()
	a, b := n.Pair()
	if err := a.Send(nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Peer drains buffered data, then sees end of stream.
	msg, err := b.Recv(nil)
	if err != nil || string(msg) != "x" {
		t.Fatalf("Recv after close = %q, %v", msg, err)
	}
	if msg, err := b.Recv(nil); err != nil || msg != nil {
		t.Fatalf("EOF Recv = %q, %v, want nil, nil", msg, err)
	}
	if err := b.Send(nil, []byte("y")); err != ErrReset {
		t.Fatalf("Send to closed peer = %v, want ErrReset", err)
	}
	if err := a.Send(nil, []byte("z")); err != ErrClosed {
		t.Fatalf("Send on closed endpoint = %v, want ErrClosed", err)
	}
	a.Close() // idempotent
}

func TestSendBounds(t *testing.T) {
	n := New()
	a, b := n.Pair()
	if err := a.Send(nil, make([]byte, MaxMessage+1)); err != ErrMsgSize {
		t.Fatalf("oversized Send = %v, want ErrMsgSize", err)
	}
	// Fill the peer inbox to the bound; the next send would block.
	chunk := make([]byte, MaxMessage)
	for i := 0; i < connBuffer/MaxMessage; i++ {
		if err := a.Send(nil, chunk); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := a.Send(nil, []byte("one more")); err != ErrWouldBlock {
		t.Fatalf("Send into full buffer = %v, want ErrWouldBlock", err)
	}
	if _, err := b.Recv(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(nil, []byte("fits now")); err != nil {
		t.Fatalf("Send after drain: %v", err)
	}
}

// chanGate adapts a buffered channel to the Gate interface for tests.
type chanGate chan struct{}

func (g chanGate) Enter() { g <- struct{}{} }
func (g chanGate) Leave() { <-g }

// TestBlockingWithGate runs a server and clients on real goroutines
// with fewer run slots than processes — the regime the scheduler
// creates — and checks that gate-released blocking makes progress.
func TestBlockingWithGate(t *testing.T) {
	const clients = 8
	n := New()
	l, err := n.Listen(80, 4)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chanGate, 2) // 2 run slots for 9 goroutines
	var wg sync.WaitGroup
	wg.Add(1 + clients)
	go func() {
		defer wg.Done()
		gate.Enter()
		defer gate.Leave()
		for i := 0; i < clients; i++ {
			c, err := l.Accept(gate)
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			for {
				msg, err := c.Recv(gate)
				if err != nil {
					t.Errorf("server Recv: %v", err)
					return
				}
				if msg == nil {
					break
				}
				if err := c.Send(gate, msg); err != nil {
					t.Errorf("server Send: %v", err)
					return
				}
			}
			c.Close()
		}
	}()
	for i := 0; i < clients; i++ {
		go func(id int) {
			defer wg.Done()
			gate.Enter()
			defer gate.Leave()
			c, err := n.Dial(80, gate)
			if err != nil {
				t.Errorf("client %d Dial: %v", id, err)
				return
			}
			for j := 0; j < 16; j++ {
				want := fmt.Sprintf("c%d-%d", id, j)
				if err := c.Send(gate, []byte(want)); err != nil {
					t.Errorf("client %d Send: %v", id, err)
					return
				}
				got, err := c.Recv(gate)
				if err != nil || string(got) != want {
					t.Errorf("client %d echo = %q, %v", id, got, err)
					return
				}
			}
			c.Close()
		}(i)
	}
	wg.Wait()
}

func TestAddrRoundTrip(t *testing.T) {
	for _, port := range []uint16{0, 1, 7, 80, 443, 0xffff} {
		v := EncodeAddr(port)
		a, ok := DecodeAddr(v)
		if !ok || a.Port != port || a.Family != AFInet {
			t.Errorf("round trip port %d: %+v ok=%v", port, a, ok)
		}
		if a.Encode() != v {
			t.Errorf("re-encode port %d: %#x != %#x", port, a.Encode(), v)
		}
	}
	for _, bad := range []uint32{0, 1 << 24, 3 << 24, EncodeAddr(80) | 0x00010000} {
		if _, ok := DecodeAddr(bad); ok {
			t.Errorf("DecodeAddr(%#x) accepted", bad)
		}
	}
}
