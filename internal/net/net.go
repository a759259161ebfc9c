// Package net is the deterministic in-memory loopback network behind
// the kernel's socket system calls: a port namespace, listeners with
// bounded backlogs, and message-framed stream endpoints with bounded
// buffers and blocking semantics.
//
// # Determinism contract
//
// The network is shared mutable state, so *which* connection a listener
// accepts first, and which ephemeral port a client is assigned, depend
// on goroutine interleaving. What does NOT depend on interleaving is
// everything a guest program can observe deterministically by
// construction of the workloads: streams are message-framed (each Send
// enqueues exactly one message, each Recv dequeues exactly one), so
// read boundaries never shift with timing; blocking consumes no modeled
// cycles (the trap handler charges the same fixed cost whether or not a
// call waited); and the per-connection protocol is private to the two
// endpoints. Workloads that must produce byte-stable artifacts keep
// their outputs order-independent (aggregate counters, not accept-order
// logs).
//
// # Blocking and the scheduler gate
//
// Guest processes run to completion on pool workers (internal/sched),
// so a blocking socket call must not pin its worker: with one worker a
// parked server would starve the client that could unblock it. Blocking
// entry points therefore take a Gate — the scheduler's run-slot
// semaphore. Before parking on a condition variable the caller releases
// its run slot (another runnable process takes the worker), and after
// waking it re-acquires the slot before returning to guest code. A nil
// Gate means the caller has no scheduler slot to yield (standalone
// programs, or sockets in nonblocking mode); such callers never park —
// operations that would block fail with ErrWouldBlock instead, keeping
// single-process runs hang-free and giving O_NONBLOCK its EAGAIN
// semantics for free.
//
// # Wakeup topology
//
// One lock (n.mu) still guards the whole network — that sidesteps
// lock-ordering concerns — but waiting is per-object: each listener has
// an accept cond (pending connection arrived) and a space cond (backlog
// slot freed), each endpoint has a data cond (message arrived in my
// inbox) and a space cond (room freed in my inbox, which is what my
// peer's Send waits for). Hot-path state changes Signal exactly one
// waiter instead of broadcasting to every parked socket in the fleet;
// without this a 10k-client dial storm degenerates into O(clients²)
// spurious wakeups on a single global cond. Broadcasts survive only on
// rare or terminal transitions (port bind, close) and for pollers,
// which by design watch many objects at once and are counted so the
// broadcast is skipped entirely when nobody polls.
package net

import (
	"errors"
	"slices"
	"sync"
)

// Gate is the scheduler's run-slot semaphore (implemented by
// sched.Gate). Leave releases the caller's slot and must not block;
// Enter re-acquires one and may block.
type Gate interface {
	Leave()
	Enter()
}

// Sentinel errors; the kernel maps them onto errno values.
var (
	ErrInUse      = errors.New("net: port in use")           // EADDRINUSE
	ErrRefused    = errors.New("net: connection refused")    // ECONNREFUSED
	ErrReset      = errors.New("net: connection reset")      // ECONNRESET
	ErrNotConn    = errors.New("net: not connected")         // ENOTCONN
	ErrIsConn     = errors.New("net: already connected")     // EISCONN
	ErrMsgSize    = errors.New("net: message too long")      // EMSGSIZE
	ErrWouldBlock = errors.New("net: operation would block") // EAGAIN
	ErrClosed     = errors.New("net: socket closed")         // EBADF-ish; caller decides
)

const (
	// MaxMessage bounds one framed message (one Send).
	MaxMessage = 4096
	// connBuffer bounds the bytes queued toward one endpoint; a sender
	// blocks (or fails with ErrWouldBlock) once the peer's inbox holds
	// this much.
	connBuffer = 16384
	// MaxBacklog caps a listener's pending-connection queue.
	MaxBacklog = 64
	// ephemeralBase is the first port auto-assigned to connecting
	// sockets. Assignment order is interleaving-dependent; ephemeral
	// ports are never part of deterministic workload output.
	ephemeralBase = 49152
)

// Network is one loopback network: a port namespace plus the single
// lock that all socket operations share. Parking is per-object (see the
// package comment); the network-level conds cover the two cross-object
// waits — dialers waiting for a port to be bound at all, and pollers
// watching many objects at once.
type Network struct {
	mu        sync.Mutex
	bindCond  *sync.Cond // a port was bound; dialers to unbound ports recheck
	pollCond  *sync.Cond // any state change; only signaled while pollers exist
	pollers   int        // pollers currently parked on pollCond
	ports     map[uint16]*Listener
	ephemeral uint16
}

// New creates an empty loopback network.
func New() *Network {
	n := &Network{ports: make(map[uint16]*Listener), ephemeral: ephemeralBase}
	n.bindCond = sync.NewCond(&n.mu)
	n.pollCond = sync.NewCond(&n.mu)
	return n
}

// wait parks the caller on c until the next signal. With a gate, the
// caller's scheduler slot is released while parked and re-acquired —
// without the network lock held — before returning.
func (n *Network) wait(c *sync.Cond, g Gate) {
	if g == nil {
		c.Wait()
		return
	}
	g.Leave()
	c.Wait()
	n.mu.Unlock()
	g.Enter()
	n.mu.Lock()
}

// wakePollers unblocks parked Poll calls after a state change. The
// counter check keeps the non-polling fast path at one integer compare.
func (n *Network) wakePollers() {
	if n.pollers > 0 {
		n.pollCond.Broadcast()
	}
}

// Listener is a bound, listening port with a bounded backlog of
// connections that completed Dial but have not been Accepted.
type Listener struct {
	n          *Network
	port       uint16
	capacity   int
	backlog    []*Conn
	closed     bool
	acceptCond *sync.Cond // pending connection enqueued (or closed)
	spaceCond  *sync.Cond // backlog slot freed (or closed)
}

// Listen binds and listens on port with the given backlog capacity
// (clamped to [1, MaxBacklog]). It fails with ErrInUse if the port has
// a live listener.
func (n *Network) Listen(port uint16, backlog int) (*Listener, error) {
	if backlog < 1 {
		backlog = 1
	}
	if backlog > MaxBacklog {
		backlog = MaxBacklog
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.ports[port]; ok {
		return nil, ErrInUse
	}
	l := &Listener{n: n, port: port, capacity: backlog}
	l.acceptCond = sync.NewCond(&n.mu)
	l.spaceCond = sync.NewCond(&n.mu)
	n.ports[port] = l
	n.bindCond.Broadcast() // port now bound: unblock dialers waiting for it
	n.wakePollers()
	return l, nil
}

// Port returns the listener's bound port.
func (l *Listener) Port() uint16 { return l.port }

// Accept dequeues the oldest pending connection, parking (via g) while
// the backlog is empty. With a nil gate an empty backlog fails with
// ErrWouldBlock. A closed listener fails with ErrClosed.
func (l *Listener) Accept(g Gate) (*Conn, error) {
	n := l.n
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if l.closed {
			return nil, ErrClosed
		}
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			copy(l.backlog, l.backlog[1:])
			l.backlog = l.backlog[:len(l.backlog)-1]
			l.spaceCond.Signal() // backlog slot freed: one dialer may fill it
			return c, nil
		}
		if g == nil {
			return nil, ErrWouldBlock
		}
		n.wait(l.acceptCond, g)
	}
}

// Close unbinds the port. Connections still in the backlog are reset
// (their dialers see ErrReset on use); already-accepted connections are
// unaffected.
func (l *Listener) Close() {
	n := l.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	delete(n.ports, l.port)
	for _, c := range l.backlog {
		c.closeLocked()
	}
	l.backlog = nil
	l.acceptCond.Broadcast()
	l.spaceCond.Broadcast()
	n.wakePollers()
}

// Dial connects to a listening port, parking (via g) while the port is
// not yet bound or the listener's backlog is full. It returns the
// client endpoint; the server endpoint is queued for Accept.
//
// A gated dial to an unbound port waits for a listener to appear
// rather than failing: fleet startup order is interleaving-dependent,
// so a client racing ahead of its server must rendezvous, not refuse
// (a fleet whose clients dial a port no process ever binds deadlocks —
// that is a workload bug, like a lost pipe reader). Without a gate
// there is no sibling to wait for, so an unbound port fails with
// ErrRefused immediately; with a nil gate a full backlog means
// ErrWouldBlock.
func (n *Network) Dial(port uint16, g Gate) (*Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		l, ok := n.ports[port]
		if !ok || l.closed {
			if g == nil {
				return nil, ErrRefused
			}
			n.wait(n.bindCond, g)
			continue
		}
		if len(l.backlog) < l.capacity {
			client, server := n.pairLocked()
			client.localPort = n.nextEphemeralLocked()
			client.remotePort = port
			server.localPort = port
			server.remotePort = client.localPort
			l.backlog = append(l.backlog, server)
			l.acceptCond.Signal() // new pending connection: one acceptor takes it
			n.wakePollers()
			return client, nil
		}
		if g == nil {
			return nil, ErrWouldBlock
		}
		n.wait(l.spaceCond, g)
	}
}

func (n *Network) nextEphemeralLocked() uint16 {
	p := n.ephemeral
	n.ephemeral++
	if n.ephemeral == 0 {
		n.ephemeral = ephemeralBase
	}
	return p
}

// Pair creates a connected endpoint pair outside the port namespace
// (the socketpair system call).
func (n *Network) Pair() (*Conn, *Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, b := n.pairLocked()
	return a, b
}

func (n *Network) pairLocked() (*Conn, *Conn) {
	a := &Conn{n: n}
	b := &Conn{n: n}
	a.dataCond = sync.NewCond(&n.mu)
	a.spaceCond = sync.NewCond(&n.mu)
	b.dataCond = sync.NewCond(&n.mu)
	b.spaceCond = sync.NewCond(&n.mu)
	a.peer, b.peer = b, a
	return a, b
}

// Conn is one endpoint of a message-framed stream. Each Send enqueues
// one message into the peer's inbox; each Recv dequeues one.
type Conn struct {
	n          *Network
	peer       *Conn
	inbox      [][]byte
	inboxBytes int
	closed     bool
	localPort  uint16
	remotePort uint16
	dataCond   *sync.Cond // message arrived in my inbox (or stream ended)
	spaceCond  *sync.Cond // room freed in my inbox; my peer's Send waits here
}

// LocalPort returns the port bound to this endpoint (0 for socketpair
// endpoints).
func (c *Conn) LocalPort() uint16 { return c.localPort }

// RemotePort returns the peer's port (0 for socketpair endpoints).
func (c *Conn) RemotePort() uint16 { return c.remotePort }

// Send enqueues one message, the parts of msg in order, toward the peer,
// parking (via g) while the peer's inbox is full. Oversized messages fail
// with ErrMsgSize; a closed endpoint fails with ErrClosed, a closed peer
// with ErrReset (EPIPE at the syscall layer). The bytes are copied, once.
func (c *Conn) Send(g Gate, msg ...[]byte) error {
	size := 0
	for _, p := range msg {
		size += len(p)
	}
	if size > MaxMessage {
		return ErrMsgSize
	}
	n := c.n
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if c.closed {
			return ErrClosed
		}
		if c.peer.closed {
			return ErrReset
		}
		if c.peer.inboxBytes+size <= connBuffer || len(c.peer.inbox) == 0 {
			c.peer.inbox = append(c.peer.inbox, slices.Concat(msg...))
			c.peer.inboxBytes += size
			c.peer.dataCond.Signal() // data available: one receiver takes it
			n.wakePollers()
			return nil
		}
		if g == nil {
			return ErrWouldBlock
		}
		n.wait(c.peer.spaceCond, g)
	}
}

// Recv dequeues one message, parking (via g) while the inbox is empty
// and the peer is open. An empty inbox with a closed peer returns
// (nil, nil): end of stream. With a nil gate an empty inbox fails with
// ErrWouldBlock.
func (c *Conn) Recv(g Gate) ([]byte, error) {
	n := c.n
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if c.closed {
			return nil, ErrClosed
		}
		if len(c.inbox) > 0 {
			msg := c.inbox[0]
			copy(c.inbox, c.inbox[1:])
			c.inbox[len(c.inbox)-1] = nil
			c.inbox = c.inbox[:len(c.inbox)-1]
			c.inboxBytes -= len(msg)
			c.spaceCond.Signal() // buffer space freed: my peer's sender may run
			n.wakePollers()
			return msg, nil
		}
		if c.peer.closed {
			return nil, nil // end of stream
		}
		if g == nil {
			return nil, ErrWouldBlock
		}
		n.wait(c.dataCond, g)
	}
}

// Close shuts the endpoint down. Pending inbox data is dropped; the
// peer's next Recv on an empty inbox sees end of stream, its next Send
// sees ErrReset. Closing twice is a no-op.
func (c *Conn) Close() {
	n := c.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c.closeLocked()
	n.wakePollers()
}

func (c *Conn) closeLocked() {
	if c.closed {
		return
	}
	c.closed = true
	c.inbox = nil
	c.inboxBytes = 0
	// Terminal transition: wake everything that could be parked on
	// either endpoint so it observes ErrClosed / ErrReset / EOF.
	c.dataCond.Broadcast()
	c.spaceCond.Broadcast()
	if c.peer != nil {
		c.peer.dataCond.Broadcast()  // receivers see end of stream
		c.peer.spaceCond.Broadcast() // nothing will free space now
	}
}

// Closed reports whether the endpoint has been closed.
func (c *Conn) Closed() bool {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	return c.closed
}
