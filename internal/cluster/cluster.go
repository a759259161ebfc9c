// Package cluster scales the authenticated-system-call deployment
// horizontally: N kernel instances ("nodes") sharing one durable
// filesystem and one MAC key, wired together over the internal/net
// fabric, with a fleet Director that places processes across nodes,
// watches them with heartbeats, and moves processes between nodes —
// warm failover from sealed checkpoints when a node dies, an explicit
// export/import handshake when a migration is planned.
//
// The trust argument is the paper's, extended across machines. State
// that leaves a kernel's hands — here, a sealed checkpoint crossing the
// fabric inside a migration envelope — is never trusted on the way back
// in: the importing kernel re-verifies the envelope seal, the
// destination-node binding, the admitted epoch, the program tag, and
// the control-flow/capability MACs before the process runs one
// instruction. What cryptography cannot decide is liveness — whether
// this epoch is *still allowed* to run anywhere — so the cluster keeps
// a Fence: trusted control-plane state (like ckpt.Store's epochs, held
// outside every blob) recording which epoch of each process was
// admitted where. The same sealed blob delivered to two nodes fails the
// fence on the second delivery; an exporting node is fenced at export,
// so an epoch never runs twice concurrently.
//
// # Clock and concurrency model
//
// The cluster runs on a virtual clock: the Director advances in ticks,
// each tick running every live process for one slice of modeled cycles
// and then exchanging heartbeats. Node control planes (heartbeat
// replies, migration staging) are pumped synchronously by the Director
// — in a real deployment each node's control loop is a goroutine; here
// the synchronous pump keeps every run deterministic, so fault
// campaigns and benchmarks are byte-stable. The data plane is the
// nodes' kernels, which are the same race-clean kernels the SMP
// scheduler drives.
package cluster

import (
	"encoding/binary"
	"fmt"

	"asc/internal/binfmt"
	"asc/internal/core"
	"asc/internal/kernel"
	anet "asc/internal/net"
	"asc/internal/seal"
	"asc/internal/vfs"
)

// NodeID identifies one kernel node. IDs are 1-based so the zero value
// never names a node.
type NodeID uint32

// controlBase is the first fabric port used for node control planes.
const controlBase = 7000

// ControlPort maps a node ID to its heartbeat/migration port on the
// cluster fabric.
func ControlPort(id NodeID) uint16 { return controlBase + uint16(id) }

// Control-protocol message kinds (first 4 bytes of each fabric
// message). Payloads are little-endian.
const (
	msgPing   = "ping" // + seq u64
	msgPong   = "pong" // + seq u64 + node u32
	msgMigHdr = "mig0" // + epoch u64 + blobLen u32 + nchunks u32 + name
	msgStaged = "stag" // + epoch u64 + name
	msgCommit = "cmt0"
	msgAbort  = "abr0"
	msgDone   = "done"
	msgReject = "rej0" // + canonical reason string
)

// migChunk bounds one fabric message of migration payload; well under
// net.MaxMessage so headers never push a frame over the limit.
const migChunk = 3072

// Node is one kernel instance: a core.System of its own (kernel, MAC
// key, enforcement mode) mounted on the cluster's shared durable
// filesystem, plus a control-plane listener on the cluster fabric.
type Node struct {
	ID  NodeID
	Sys *core.System

	fabric *anet.Network
	lis    *anet.Listener

	crashed bool
	// delayBeats drops replies to the next N heartbeats without
	// crashing — the fault campaign's false-suspicion injection.
	delayBeats int

	// sessions are control-plane conversations in flight, keyed by the
	// node-side connection.
	sessions map[*anet.Conn]*session

	// staged is the migration awaiting commit, if any.
	staged *stagedImport

	// resolve maps a process name to its installed executable; the
	// Director supplies it. Nodes do not trust wire metadata for
	// binaries — the program tag inside the sealed checkpoint is
	// re-verified against the resolved executable at import.
	resolve exeResolver

	// adopted is the process created by the most recent committed
	// import, for the Director to collect.
	adopted *kernel.Process

	// owned tracks the live processes placed on this node by name. It
	// is node-side ground truth a *takeover* director may re-attach to
	// (the processes survived — only the director died); a node crash
	// clears it, so a crashed node can never offer stale processes.
	owned map[string]*kernel.Process
}

// exeResolver maps a process name to its installed executable.
type exeResolver func(name string) (*binfmt.File, bool)

// session is one control-plane conversation.
type session struct {
	conn *anet.Conn
	// migration assembly state
	mig       bool
	epoch     uint64
	name      string
	blobLen   int
	nchunks   int
	chunks    int
	blob      []byte
	staged    bool
	committed bool
}

// stagedImport is a verified-but-uncommitted migration.
type stagedImport struct {
	sess  *session
	epoch uint64
	name  string
	blob  []byte
}

// NewNode builds a node with its own kernel over the shared filesystem
// and binds its control port on the fabric.
func NewNode(id NodeID, fs *vfs.FS, fabric *anet.Network, key []byte, enf kernel.Enforcement, kopts ...kernel.Option) (*Node, error) {
	sys, err := core.NewSystem(core.Config{
		Key:           key,
		FS:            fs,
		Enforcement:   enf,
		KernelOptions: kopts,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	lis, err := fabric.Listen(ControlPort(id), anet.MaxBacklog)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d control port: %w", id, err)
	}
	return &Node{
		ID:       id,
		Sys:      sys,
		fabric:   fabric,
		lis:      lis,
		sessions: make(map[*anet.Conn]*session),
		owned:    make(map[string]*kernel.Process),
	}, nil
}

// own records a live process placed on this node; disown forgets it.
func (nd *Node) own(name string, p *kernel.Process) { nd.owned[name] = p }
func (nd *Node) disown(name string)                 { delete(nd.owned, name) }

// Owned returns the live process this node holds under name (nil when
// none) — what a takeover director re-attaches to.
func (nd *Node) Owned(name string) *kernel.Process {
	if nd.crashed {
		return nil
	}
	return nd.owned[name]
}

// Crash kills the node: the control port unbinds (heartbeats start
// failing with connection-refused), in-flight control conversations
// drop, and the data plane freezes — processes homed here stop
// advancing and their un-checkpointed state is lost. The shared
// filesystem and the per-process checkpoint stores survive; they are
// the cluster's durable storage.
func (nd *Node) Crash() {
	if nd.crashed {
		return
	}
	nd.crashed = true
	nd.lis.Close()
	for c := range nd.sessions {
		c.Close()
	}
	nd.sessions = make(map[*anet.Conn]*session)
	nd.staged = nil
	nd.owned = make(map[string]*kernel.Process)
}

// Alive reports whether the node has not crashed. It is a modeling
// accessor for tests and benchmarks; the Director's failure detection
// uses heartbeats over the fabric, never this method.
func (nd *Node) Alive() bool { return !nd.crashed }

// DelayHeartbeats makes the node drop (not answer) the next n
// heartbeat pings while staying otherwise healthy — a slow or
// partitioned node that has not failed.
func (nd *Node) DelayHeartbeats(n int) { nd.delayBeats += n }

// serve runs one synchronous pump of the node's control plane: accept
// every pending connection, then drain every pending message on every
// open session. The Director calls it after each control-plane send, so
// bounded fabric buffers never fill and the virtual clock never blocks.
func (nd *Node) serve() {
	if nd.crashed {
		return
	}
	for {
		c, err := nd.lis.Accept(nil)
		if err != nil {
			break // empty backlog (or closed): nothing new
		}
		nd.sessions[c] = &session{conn: c}
	}
	for c, s := range nd.sessions {
		nd.drain(c, s)
	}
}

// drain consumes every pending message on one session.
func (nd *Node) drain(c *anet.Conn, s *session) {
	for {
		msg, err := c.Recv(nil)
		if err != nil {
			if err == anet.ErrWouldBlock {
				return // nothing pending; keep the session
			}
			nd.drop(c)
			return
		}
		if msg == nil { // peer closed: end of conversation
			nd.drop(c)
			return
		}
		if !nd.handle(c, s, msg) {
			nd.drop(c)
			return
		}
	}
}

// drop closes and forgets one session, discarding any staged import
// tied to it.
func (nd *Node) drop(c *anet.Conn) {
	if nd.staged != nil && nd.staged.sess == nd.sessions[c] {
		nd.staged = nil
	}
	c.Close()
	delete(nd.sessions, c)
}

// handle dispatches one control message; false tears the session down.
func (nd *Node) handle(c *anet.Conn, s *session, msg []byte) bool {
	if len(msg) < 4 {
		return false
	}
	kind := string(msg[:4])
	body := msg[4:]
	switch kind {
	case msgPing:
		if len(body) != 8 {
			return false
		}
		if nd.delayBeats > 0 {
			// Alive but slow: swallow the ping. The director's read
			// times out (ErrWouldBlock) and counts a missed beat.
			nd.delayBeats--
			return true
		}
		reply := make([]byte, 0, 16)
		reply = append(reply, msgPong...)
		reply = append(reply, body[:8]...)
		reply = binary.LittleEndian.AppendUint32(reply, uint32(nd.ID))
		return c.Send(nil, reply) == nil
	case msgMigHdr:
		if s.mig || len(body) < 16 {
			return false
		}
		s.mig = true
		s.epoch = binary.LittleEndian.Uint64(body)
		s.blobLen = int(binary.LittleEndian.Uint32(body[8:]))
		s.nchunks = int(binary.LittleEndian.Uint32(body[12:]))
		s.name = string(body[16:])
		if s.blobLen < 0 || s.nchunks < 0 || s.blobLen > s.nchunks*migChunk {
			return false
		}
		s.blob = make([]byte, 0, s.blobLen)
		if s.nchunks == 0 {
			return nd.stage(c, s)
		}
		return true
	case msgCommit:
		return nd.commit(c, s)
	case msgAbort:
		if nd.staged != nil && nd.staged.sess == s {
			nd.staged = nil
		}
		return true
	default:
		if s.mig && !s.staged {
			// A payload chunk.
			s.blob = append(s.blob, msg...)
			s.chunks++
			if s.chunks < s.nchunks {
				return true
			}
			return nd.stage(c, s)
		}
		return false
	}
}

// reject replies with a canonical rejection reason.
func (nd *Node) reject(c *anet.Conn, reason string) bool {
	return c.Send(nil, append([]byte(msgReject), reason...)) == nil
}

// stage verifies a fully assembled migration envelope — seal,
// destination-node binding, name consistency — and holds it for the
// commit decision. No guest state is built yet.
func (nd *Node) stage(c *anet.Conn, s *session) bool {
	s.staged = true
	if len(s.blob) != s.blobLen {
		return nd.reject(c, seal.ReasonTruncated)
	}
	m, err := nd.Sys.Kernel.PeekMigration(s.blob)
	if err != nil {
		return nd.reject(c, seal.Reason(err))
	}
	if m.Dst != uint32(nd.ID) {
		return nd.reject(c, seal.ReasonNode)
	}
	if m.Name != s.name || m.Epoch != s.epoch {
		return nd.reject(c, seal.ReasonMalformed)
	}
	nd.staged = &stagedImport{sess: s, epoch: m.Epoch, name: m.Name, blob: s.blob}
	reply := make([]byte, 0, 12+len(m.Name))
	reply = append(reply, msgStaged...)
	reply = binary.LittleEndian.AppendUint64(reply, m.Epoch)
	reply = append(reply, m.Name...)
	return c.Send(nil, reply) == nil
}

// commit imports the staged migration through the kernel's full
// verification pipeline and answers done or a classified rejection.
func (nd *Node) commit(c *anet.Conn, s *session) bool {
	st := nd.staged
	if st == nil || st.sess != s {
		return nd.reject(c, "no staged migration")
	}
	nd.staged = nil
	exe, ok := nd.resolve(st.name)
	if !ok {
		return nd.reject(c, "unknown program")
	}
	p, err := nd.Sys.Kernel.Import(exe, uint32(nd.ID), st.blob, st.epoch)
	if err != nil {
		return nd.reject(c, seal.Reason(err))
	}
	s.committed = true
	nd.adopted = p
	return c.Send(nil, []byte(msgDone)) == nil
}
