// socket.go implements the socket system call family. With a Network
// attached (kernel.WithNetwork) the calls move real bytes through the
// in-memory loopback network under the same authenticated-call
// verification as every other trap: destination ports cross the
// boundary by value (internal/net.SockAddr), so a constant port is a
// MAC-constrained immediate, and constant payloads are covered by
// authenticated-string checks. Without a Network the family keeps its
// historical validate-and-succeed stub behaviour.
//
// Determinism: every handler charges the same fixed cost (plus exact
// per-byte costs) whether or not the call parked on the network, so a
// process's cycle count never depends on scheduling interleavings.
package kernel

import (
	"encoding/binary"
	"errors"
	"slices"

	anet "asc/internal/net"
	"asc/internal/sys"
)

// SetGate hands the process the scheduler's run-slot semaphore; socket
// calls that park release it so a runnable sibling can use the worker
// (sched.Pool.RunGated installs it). Without a gate, socket calls never
// block: they fail with EAGAIN instead.
func (p *Process) SetGate(g anet.Gate) { p.gate = g }

// ReleaseNet closes every network endpoint the process still holds.
// Drivers call it once the process is done (exit, kill, or driver
// error) so peers blocked on a dead process's sockets wake up with end
// of stream or ECONNRESET instead of hanging the fleet.
func (k *Kernel) ReleaseNet(p *Process) {
	if k.Net == nil {
		return
	}
	for _, e := range p.fds {
		if e == nil || e.kind != fdSocket || e.sock == nil {
			continue
		}
		if e.sock.conn != nil {
			e.sock.conn.Close()
		}
		if e.sock.lis != nil {
			e.sock.lis.Close()
		}
	}
}

// parkPoint synchronizes the group-commit queue before an operation
// that may park the process and hand its run slot to a sibling: guest
// memory must be current at every scheduling boundary, exactly as it is
// at checkpoint time. The drain is on the guest clock — materializing a
// burst is work the process's own calls queued up — and runs whether or
// not the call actually parks, keeping cycle counts independent of
// scheduling interleavings.
func (k *Kernel) parkPoint(p *Process) {
	if k.batchN > 1 {
		k.drainCommit(p)
	}
}

// gateFor picks the gate a potentially-blocking operation on s parks
// on: the process's scheduler gate normally, nil when the socket is in
// nonblocking mode — a nil gate never parks, so would-block operations
// fail with ErrWouldBlock and surface as EAGAIN. This is the entire
// O_NONBLOCK mechanism; the network layer needs no mode of its own.
func (p *Process) gateFor(s *socket) anet.Gate {
	if s.nonblock {
		return nil
	}
	return p.gate
}

// sockEntry validates a socket descriptor: EBADF for a bad fd,
// ENOTSOCK for a descriptor of another kind.
func (p *Process) sockEntry(fd uint32) (*fdEntry, uint32) {
	e := p.fd(fd)
	if e == nil {
		return nil, errno(sys.EBADF)
	}
	if e.kind != fdSocket || e.sock == nil {
		return nil, errno(sys.ENOTSOCK)
	}
	return e, 0
}

// netErrno maps internal/net sentinel errors onto errno returns.
func netErrno(err error) uint32 {
	switch {
	case errors.Is(err, anet.ErrInUse):
		return errno(sys.EADDRINUSE)
	case errors.Is(err, anet.ErrRefused):
		return errno(sys.ECONNREFUSED)
	case errors.Is(err, anet.ErrReset):
		return errno(sys.ECONNRESET)
	case errors.Is(err, anet.ErrNotConn):
		return errno(sys.ENOTCONN)
	case errors.Is(err, anet.ErrIsConn):
		return errno(sys.EISCONN)
	case errors.Is(err, anet.ErrMsgSize):
		return errno(sys.EMSGSIZE)
	case errors.Is(err, anet.ErrWouldBlock):
		return errno(sys.EAGAIN)
	case errors.Is(err, anet.ErrClosed):
		return errno(sys.EBADF)
	default:
		return errno(sys.EINVAL)
	}
}

// putAddr writes a packed by-value socket address to guest memory (the
// StructOut of accept/recvfrom/getsockname/getpeername). addr==0 means
// the caller declined the result.
func putAddr(p *Process, addr uint32, packed uint32) uint32 {
	if addr == 0 {
		return 0
	}
	var out [4]byte
	binary.LittleEndian.PutUint32(out[:], packed)
	if err := p.Mem.UserWrite(addr, out[:]); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

func (k *Kernel) sysSocket(p *Process, domain, typ, proto uint32) uint32 {
	fd, ok := p.allocFD(&fdEntry{kind: fdSocket, sock: &socket{domain: domain, typ: typ, proto: proto}})
	if !ok {
		return errno(sys.ENFILE)
	}
	return uint32(fd)
}

func (k *Kernel) sockCheck(p *Process, fd uint32) uint32 {
	_, rc := p.sockEntry(fd)
	return rc
}

func (k *Kernel) sysBind(p *Process, fd, addr uint32) uint32 {
	e, rc := p.sockEntry(fd)
	if rc != 0 {
		return rc
	}
	if k.Net == nil {
		return 0
	}
	a, ok := anet.DecodeAddr(addr)
	if !ok {
		return errno(sys.EINVAL)
	}
	s := e.sock
	if s.conn != nil {
		return errno(sys.EISCONN)
	}
	if s.bound {
		return errno(sys.EINVAL)
	}
	s.bound = true
	s.port = a.Port
	return 0
}

func (k *Kernel) sysListen(p *Process, fd, backlog uint32) uint32 {
	e, rc := p.sockEntry(fd)
	if rc != 0 {
		return rc
	}
	if k.Net == nil {
		return 0
	}
	s := e.sock
	if s.conn != nil {
		return errno(sys.EISCONN)
	}
	if s.lis != nil {
		return 0
	}
	if !s.bound {
		return errno(sys.EINVAL)
	}
	l, err := k.Net.Listen(s.port, int(int32(backlog)))
	if err != nil {
		return netErrno(err)
	}
	s.lis = l
	return 0
}

func (k *Kernel) sysConnect(p *Process, fd, addr uint32) uint32 {
	e, rc := p.sockEntry(fd)
	if rc != 0 {
		return rc
	}
	if k.Net == nil {
		return 0
	}
	s := e.sock
	if s.conn != nil {
		return errno(sys.EISCONN)
	}
	if s.lis != nil {
		return errno(sys.EINVAL)
	}
	a, ok := anet.DecodeAddr(addr)
	if !ok {
		return errno(sys.EINVAL)
	}
	k.parkPoint(p)
	c, err := k.Net.Dial(a.Port, p.gateFor(s))
	if err != nil {
		return netErrno(err)
	}
	s.conn = c
	return 0
}

func (k *Kernel) sysAccept(p *Process, fd, addrOut uint32) uint32 {
	e, rc := p.sockEntry(fd)
	if rc != 0 {
		return rc
	}
	if k.Net == nil {
		// Legacy stub: hand out a fresh unconnected socket.
		nfd, ok := p.allocFD(&fdEntry{kind: fdSocket, sock: &socket{}})
		if !ok {
			return errno(sys.ENFILE)
		}
		return uint32(nfd)
	}
	s := e.sock
	if s.lis == nil {
		return errno(sys.EINVAL)
	}
	k.parkPoint(p)
	c, err := s.lis.Accept(p.gateFor(s))
	if err != nil {
		return netErrno(err)
	}
	nfd, ok := p.allocFD(&fdEntry{kind: fdSocket, sock: &socket{
		domain: s.domain, typ: s.typ, proto: s.proto,
		bound: true, port: c.LocalPort(), conn: c,
	}})
	if !ok {
		c.Close()
		return errno(sys.ENFILE)
	}
	if rc := putAddr(p, addrOut, anet.EncodeAddr(c.RemotePort())); rc != 0 {
		return rc
	}
	return uint32(nfd)
}

func (k *Kernel) sysSendto(p *Process, fd, buf, n, addr uint32) uint32 {
	e, rc := p.sockEntry(fd)
	if rc != 0 {
		return rc
	}
	// The payload, one view per page, is copied once: into the socket.
	var iov [2][]byte
	if k.Net == nil {
		// Legacy stub: capture the payload on the socket.
		parts, err := p.Mem.KernelPieces(iov[:0], buf, n)
		if err != nil {
			return errno(sys.EFAULT)
		}
		e.sock.sent = append(e.sock.sent, slices.Concat(parts...))
		p.CPU.Cycles += uint64(n) * k.Costs.WritePerByte / 1000
		return n
	}
	s := e.sock
	if s.conn == nil {
		return errno(sys.ENOTCONN)
	}
	if n > anet.MaxMessage {
		return errno(sys.EMSGSIZE)
	}
	parts, err := p.Mem.KernelPieces(iov[:0], buf, n)
	if err != nil {
		return errno(sys.EFAULT)
	}
	k.parkPoint(p)
	if err := s.conn.Send(p.gateFor(s), parts...); err != nil {
		if errors.Is(err, anet.ErrReset) {
			return errno(sys.EPIPE)
		}
		return netErrno(err)
	}
	p.CPU.Cycles += uint64(n) * k.Costs.WritePerByte / 1000
	return n
}

func (k *Kernel) sysRecvfrom(p *Process, fd, buf, n, srcOut uint32) uint32 {
	e, rc := p.sockEntry(fd)
	if rc != 0 {
		return rc
	}
	if k.Net == nil {
		// Legacy stub: a valid socket has no data; 0 means end of stream.
		return 0
	}
	s := e.sock
	if s.conn == nil {
		return errno(sys.ENOTCONN)
	}
	k.parkPoint(p)
	msg, err := s.conn.Recv(p.gateFor(s))
	if err != nil {
		return netErrno(err)
	}
	if msg == nil {
		return 0 // end of stream
	}
	got := len(msg)
	if uint32(got) > n {
		got = int(n) // excess bytes of the framed message are dropped
	}
	if got > 0 {
		if err := p.Mem.UserWrite(buf, msg[:got]); err != nil {
			return errno(sys.EFAULT)
		}
	}
	if rc := putAddr(p, srcOut, anet.EncodeAddr(s.conn.RemotePort())); rc != 0 {
		return rc
	}
	p.CPU.Cycles += uint64(got) * k.Costs.ReadPerByte / 1000
	return uint32(got)
}

func (k *Kernel) sysShutdown(p *Process, fd uint32) uint32 {
	e, rc := p.sockEntry(fd)
	if rc != 0 {
		return rc
	}
	if k.Net == nil {
		return 0
	}
	s := e.sock
	switch {
	case s.conn != nil:
		s.conn.Close()
	case s.lis != nil:
		s.lis.Close()
	default:
		return errno(sys.ENOTCONN)
	}
	return 0
}

// sysSockname serves getsockname (peer=false) and getpeername
// (peer=true), writing the packed by-value address.
func (k *Kernel) sysSockname(p *Process, fd, addrOut uint32, peer bool) uint32 {
	e, rc := p.sockEntry(fd)
	if rc != 0 {
		return rc
	}
	if k.Net == nil {
		return 0
	}
	s := e.sock
	var port uint16
	switch {
	case peer && s.conn != nil:
		port = s.conn.RemotePort()
	case peer:
		return errno(sys.ENOTCONN)
	case s.conn != nil:
		port = s.conn.LocalPort()
	default:
		port = s.port
	}
	return putAddr(p, addrOut, anet.EncodeAddr(port))
}

func (k *Kernel) sysSocketpair(p *Process, buf uint32) uint32 {
	ea := &fdEntry{kind: fdSocket, sock: &socket{}}
	eb := &fdEntry{kind: fdSocket, sock: &socket{}}
	if k.Net != nil {
		ea.sock.conn, eb.sock.conn = k.Net.Pair()
	}
	a, ok1 := p.allocFD(ea)
	b, ok2 := p.allocFD(eb)
	if !ok1 || !ok2 {
		return errno(sys.ENFILE)
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint32(out[0:], uint32(a))
	binary.LittleEndian.PutUint32(out[4:], uint32(b))
	if err := p.Mem.UserWrite(buf, out); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

// pollEntryFor resolves one guest fd to a readiness entry. Unknown fds
// are Invalid (POLLNVAL); non-socket descriptors (files, pipes, the
// console) never block in this kernel and are Static always-ready;
// unconnected sockets resolve to no object and are never ready.
func (p *Process) pollEntryFor(fd uint32, wantIn, wantOut bool) anet.PollEntry {
	pe := anet.PollEntry{WantIn: wantIn, WantOut: wantOut}
	e := p.fd(fd)
	switch {
	case e == nil:
		pe.Invalid = true
	case e.kind != fdSocket || e.sock == nil:
		pe.Static = true
	case e.sock.lis != nil:
		pe.Lis = e.sock.lis
	case e.sock.conn != nil:
		pe.Conn = e.sock.conn
	}
	return pe
}

// sysPoll implements poll(2) over the guest pollfd record set (see
// internal/net: 8 bytes per entry, fd word + events|revents word). A
// zero timeout polls once; any nonzero timeout blocks until some entry
// is ready — elapsed time is not modeled, so finite timeouts never
// expire. The set pointer is a MOVI constant in every workload, making
// it a MAC-constrained immediate: a tampered pointer is a call-MAC
// mismatch, not a misdirected readiness scan.
func (k *Kernel) sysPoll(p *Process, fdsAddr, nfds, timeout uint32) uint32 {
	if nfds > anet.MaxPollFDs {
		return errno(sys.EINVAL)
	}
	p.CPU.Cycles += uint64(nfds) * k.Costs.PollPerFD
	if nfds == 0 {
		return 0
	}
	raw, err := p.Mem.KernelRead(fdsAddr, nfds*anet.PollFDSize)
	if err != nil {
		return errno(sys.EFAULT)
	}
	set, err := anet.DecodePollSet(raw)
	if err != nil {
		return errno(sys.EINVAL)
	}
	if k.Net == nil {
		return 0 // legacy stub: nothing is ever ready
	}
	entries := make([]anet.PollEntry, len(set))
	for i, f := range set {
		entries[i] = p.pollEntryFor(f.FD, f.Events&anet.POLLIN != 0, f.Events&anet.POLLOUT != 0)
	}
	k.parkPoint(p)
	ready := k.Net.Poll(entries, timeout != 0, p.gate)
	for i := range set {
		set[i].REvents = 0
		if entries[i].Invalid {
			set[i].REvents |= anet.POLLNVAL
		}
		if entries[i].In {
			set[i].REvents |= anet.POLLIN
		}
		if entries[i].Out {
			set[i].REvents |= anet.POLLOUT
		}
	}
	if err := p.Mem.UserWrite(fdsAddr, anet.EncodePollSet(set)); err != nil {
		return errno(sys.EFAULT)
	}
	return uint32(ready)
}

// selectMaxFDs bounds the select bitmap width (words = selectMaxFDs/32).
const selectMaxFDs = 1024

// readFDSet loads a select bitmap (little-endian 32-bit words) from
// guest memory; a zero address is an absent set.
func (p *Process) readFDSet(addr, words uint32) ([]uint32, uint32) {
	if addr == 0 {
		return nil, 0
	}
	raw, err := p.Mem.KernelRead(addr, words*4)
	if err != nil {
		return nil, errno(sys.EFAULT)
	}
	set := make([]uint32, words)
	for i := range set {
		set[i] = binary.LittleEndian.Uint32(raw[i*4:])
	}
	return set, 0
}

// sysSelect implements a minimal select(2): read/write fd bitmaps,
// except set ignored (always cleared), a nil timeout pointer blocks and
// a non-nil one polls once. Ready fds stay set in the written-back
// bitmaps; the return value counts set bits across both maps.
func (k *Kernel) sysSelect(p *Process, nfds, rAddr, wAddr, eAddr, tAddr uint32) uint32 {
	if nfds > selectMaxFDs {
		return errno(sys.EINVAL)
	}
	p.CPU.Cycles += uint64(nfds) * k.Costs.PollPerFD
	if nfds == 0 {
		return 0
	}
	words := (nfds + 31) / 32
	rSet, rc := p.readFDSet(rAddr, words)
	if rc != 0 {
		return rc
	}
	wSet, rc := p.readFDSet(wAddr, words)
	if rc != 0 {
		return rc
	}
	if k.Net == nil {
		return 0 // legacy stub: nothing is ever ready
	}
	type slot struct {
		fd       uint32
		entryIdx int
	}
	var entries []anet.PollEntry
	var slots []slot
	for fd := uint32(0); fd < nfds; fd++ {
		wantIn := rSet != nil && rSet[fd/32]&(1<<(fd%32)) != 0
		wantOut := wSet != nil && wSet[fd/32]&(1<<(fd%32)) != 0
		if !wantIn && !wantOut {
			continue
		}
		pe := p.pollEntryFor(fd, wantIn, wantOut)
		if pe.Invalid {
			return errno(sys.EBADF) // select reports bad fds as EBADF
		}
		slots = append(slots, slot{fd: fd, entryIdx: len(entries)})
		entries = append(entries, pe)
	}
	if len(entries) > 0 {
		k.parkPoint(p)
		k.Net.Poll(entries, tAddr == 0, p.gate)
	}
	ready := uint32(0)
	for i := range rSet {
		rSet[i] = 0
	}
	for i := range wSet {
		wSet[i] = 0
	}
	for _, s := range slots {
		e := &entries[s.entryIdx]
		if e.In {
			rSet[s.fd/32] |= 1 << (s.fd % 32)
			ready++
		}
		if e.Out {
			wSet[s.fd/32] |= 1 << (s.fd % 32)
			ready++
		}
	}
	for _, out := range []struct {
		addr uint32
		set  []uint32
	}{{rAddr, rSet}, {wAddr, wSet}} {
		if out.addr == 0 {
			continue
		}
		raw := make([]byte, len(out.set)*4)
		for i, w := range out.set {
			binary.LittleEndian.PutUint32(raw[i*4:], w)
		}
		if err := p.Mem.UserWrite(out.addr, raw); err != nil {
			return errno(sys.EFAULT)
		}
	}
	if eAddr != 0 {
		k.writeZeros(p, eAddr, words*4)
	}
	return ready
}
