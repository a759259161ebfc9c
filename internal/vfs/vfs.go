// Package vfs implements the in-memory Unix-like filesystem of the
// simulated platform.
//
// The kernel's file-related system calls (open, read, write, mkdir,
// unlink, readlink, ...) operate on this filesystem. It supports
// directories, regular files, hard links, and symbolic links; symlinks
// matter because Section 5.4 of the paper discusses file-name
// normalization as a defense against symlink races, and the kernel's
// normalization path exercises this package's resolution logic.
//
// An FS is safe for concurrent use by multiple goroutines (the SMP
// scheduler runs many guest processes against one filesystem): a
// read-write lock serializes tree mutation against lookups, and node
// contents are only reached through locked FS methods. Per-file handle
// state (the file offset) lives in the kernel's descriptor table, one
// per open handle, so concurrent readers of one file never share
// positions. Callers holding a *Node must treat it as an opaque handle
// and go through FS methods (ReadAt, WriteAt, InfoOf, NodeSize) for
// every access; Node.Kind is immutable after creation and may be read
// directly.
package vfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// NodeKind distinguishes filesystem object types.
type NodeKind uint8

// Node kinds.
const (
	KindFile NodeKind = iota + 1
	KindDir
	KindSymlink
)

func (k NodeKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	case KindSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Errors returned by filesystem operations. They deliberately mirror the
// kernel's errno set so the kernel can translate them mechanically.
var (
	ErrNotExist  = errors.New("vfs: no such file or directory")
	ErrExist     = errors.New("vfs: file exists")
	ErrNotDir    = errors.New("vfs: not a directory")
	ErrIsDir     = errors.New("vfs: is a directory")
	ErrNotEmpty  = errors.New("vfs: directory not empty")
	ErrLoop      = errors.New("vfs: too many levels of symbolic links")
	ErrInvalid   = errors.New("vfs: invalid argument")
	ErrNameLong  = errors.New("vfs: name too long")
	ErrPermitted = errors.New("vfs: operation not permitted")
)

// MaxSymlinkDepth bounds symlink resolution, mirroring ELOOP.
const MaxSymlinkDepth = 8

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// MaxFileSize bounds regular file sizes (the simulated disk quota);
// larger writes and truncates fail with ErrNoSpace.
const MaxFileSize = 16 << 20

// ErrNoSpace is returned when a write would exceed MaxFileSize.
var ErrNoSpace = errors.New("vfs: no space left on device")

// Node is a filesystem object. Hard links are represented by the same
// *Node appearing under several directory entries. All fields other than
// Kind (immutable after creation) are guarded by the owning FS's lock.
type Node struct {
	Kind   NodeKind
	Mode   uint32
	Data   []byte           // file contents
	Target string           // symlink target
	kids   map[string]*Node // directory entries
	nlink  int
	mtime  uint64
}

// Size returns the file size in bytes (0 for directories and symlinks).
// Unsynchronized; use FS.NodeSize under concurrency.
func (n *Node) Size() uint32 {
	if n.Kind == KindFile {
		return uint32(len(n.Data))
	}
	return 0
}

// Nlink returns the link count. Unsynchronized; use FS.InfoOf under
// concurrency.
func (n *Node) Nlink() int { return n.nlink }

// Mtime returns the logical modification time (a monotone counter).
// Unsynchronized; use FS.InfoOf under concurrency.
func (n *Node) Mtime() uint64 { return n.mtime }

// Info is a point-in-time metadata snapshot of one node, taken under the
// filesystem lock.
type Info struct {
	Kind  NodeKind
	Mode  uint32
	Size  uint32
	Nlink int
	Mtime uint64
}

// FS is an in-memory filesystem rooted at "/".
type FS struct {
	mu    sync.RWMutex
	root  *Node
	clock uint64
}

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	return &FS{root: &Node{Kind: KindDir, Mode: 0o755, kids: map[string]*Node{}, nlink: 1}}
}

func (fs *FS) tick() uint64 {
	fs.clock++
	return fs.clock
}

// splitPath converts an absolute path into components, rejecting empty
// and over-long names. "." components are dropped here; ".." is kept for
// resolution (it must be applied after symlink expansion).
func splitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: path %q must be absolute", ErrInvalid, path)
	}
	var comps []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
			continue
		}
		if len(c) > MaxNameLen {
			return nil, ErrNameLong
		}
		comps = append(comps, c)
	}
	return comps, nil
}

// resolved is the result of a path walk.
type resolved struct {
	parent *Node  // directory containing the entry (nil only for "/")
	name   string // final component name ("" for "/")
	node   *Node  // the entry itself; nil if it does not exist
	canon  string // canonical path (symlinks resolved, ".." applied)
}

// walk resolves path; the caller must hold the lock (read or write). If
// followLast is true, a symlink as the final component is chased;
// otherwise it is returned as-is (lstat/unlink semantics). The final
// component may be absent (node == nil) if and only if its parent
// exists; any other missing component is an error.
func (fs *FS) walk(path string, followLast bool) (resolved, error) {
	comps, err := splitPath(path)
	if err != nil {
		return resolved{}, err
	}
	return fs.walkFrom(fs.root, []string{}, comps, followLast, 0)
}

func (fs *FS) walkFrom(dir *Node, canon, comps []string, followLast bool, depth int) (resolved, error) {
	if depth > MaxSymlinkDepth {
		return resolved{}, ErrLoop
	}
	cur := dir
	for i := 0; i < len(comps); i++ {
		c := comps[i]
		if cur.Kind != KindDir {
			return resolved{}, ErrNotDir
		}
		if c == ".." {
			if len(canon) > 0 {
				canon = canon[:len(canon)-1]
			}
			cur = fs.mustLookup(canon)
			continue
		}
		last := i == len(comps)-1
		child := cur.kids[c]
		if child == nil {
			if last {
				return resolved{parent: cur, name: c, canon: joinCanon(append(canon, c))}, nil
			}
			return resolved{}, ErrNotExist
		}
		if child.Kind == KindSymlink && (!last || followLast) {
			tcomps, err := splitTarget(child.Target, canon)
			if err != nil {
				return resolved{}, err
			}
			rest := append(tcomps, comps[i+1:]...)
			return fs.walkFrom(fs.root, nil, rest, followLast, depth+1)
		}
		canon = append(canon, c)
		if last {
			return resolved{parent: cur, name: c, node: child, canon: joinCanon(canon)}, nil
		}
		cur = child
	}
	// Path resolved to the starting directory itself ("/", or all dots).
	return resolved{node: cur, canon: joinCanon(canon)}, nil
}

// splitTarget expands a symlink target into absolute components: relative
// targets are interpreted against the directory holding the link.
func splitTarget(target string, canon []string) ([]string, error) {
	if target == "" {
		return nil, ErrInvalid
	}
	if target[0] == '/' {
		return splitPath(target)
	}
	base := append([]string{}, canon...)
	rel, err := splitPath("/" + target)
	if err != nil {
		return nil, err
	}
	return append(base, rel...), nil
}

// mustLookup returns the directory at the canonical component path; the
// components are known-good (they were just walked).
func (fs *FS) mustLookup(canon []string) *Node {
	cur := fs.root
	for _, c := range canon {
		next := cur.kids[c]
		if next == nil {
			return cur
		}
		cur = next
	}
	return cur
}

func joinCanon(comps []string) string {
	if len(comps) == 0 {
		return "/"
	}
	return "/" + strings.Join(comps, "/")
}

// Normalize resolves all symlinks and dot components and returns the
// canonical absolute path. The named object must exist. This implements
// the file-name normalization of paper Section 5.4.
func (fs *FS) Normalize(path string) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	r, err := fs.walk(path, true)
	if err != nil {
		return "", err
	}
	if r.node == nil {
		return "", ErrNotExist
	}
	return r.canon, nil
}

// lookup resolves path to an existing node, following symlinks; the
// caller must hold the lock.
func (fs *FS) lookup(path string) (*Node, error) {
	r, err := fs.walk(path, true)
	if err != nil {
		return nil, err
	}
	if r.node == nil {
		return nil, ErrNotExist
	}
	return r.node, nil
}

// Lookup returns the node at path, following symlinks.
func (fs *FS) Lookup(path string) (*Node, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lookup(path)
}

// Lstat returns the node at path without following a final symlink.
func (fs *FS) Lstat(path string) (*Node, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lstat(path)
}

func (fs *FS) lstat(path string) (*Node, error) {
	r, err := fs.walk(path, false)
	if err != nil {
		return nil, err
	}
	if r.node == nil {
		return nil, ErrNotExist
	}
	return r.node, nil
}

// infoOf snapshots node metadata; the caller must hold the lock.
func infoOf(n *Node) Info {
	return Info{Kind: n.Kind, Mode: n.Mode, Size: n.Size(), Nlink: n.nlink, Mtime: n.mtime}
}

// InfoOf returns a metadata snapshot of an open node.
func (fs *FS) InfoOf(n *Node) Info {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return infoOf(n)
}

// NodeSize returns the current size of an open node.
func (fs *FS) NodeSize(n *Node) uint32 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return n.Size()
}

// Stat resolves path and returns a metadata snapshot in one locked
// operation. With follow false a final symlink is not chased.
func (fs *FS) Stat(path string, follow bool) (Info, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n *Node
	var err error
	if follow {
		n, err = fs.lookup(path)
	} else {
		n, err = fs.lstat(path)
	}
	if err != nil {
		return Info{}, err
	}
	return infoOf(n), nil
}

// Create creates (or truncates, if trunc) a regular file and returns its
// node. Parent directories must exist.
func (fs *FS) Create(path string, mode uint32, trunc bool) (*Node, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.create(path, mode, trunc)
}

func (fs *FS) create(path string, mode uint32, trunc bool) (*Node, error) {
	r, err := fs.walk(path, true)
	if err != nil {
		return nil, err
	}
	if r.node != nil {
		if r.node.Kind == KindDir {
			return nil, ErrIsDir
		}
		if trunc {
			r.node.Data = nil
			r.node.mtime = fs.tick()
		}
		return r.node, nil
	}
	if r.parent == nil {
		return nil, ErrInvalid
	}
	n := &Node{Kind: KindFile, Mode: mode, nlink: 1, mtime: fs.tick()}
	r.parent.kids[r.name] = n
	return n, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string, mode uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mkdir(path, mode)
}

func (fs *FS) mkdir(path string, mode uint32) error {
	r, err := fs.walk(path, true)
	if err != nil {
		return err
	}
	if r.node != nil {
		return ErrExist
	}
	if r.parent == nil {
		return ErrExist // "/"
	}
	r.parent.kids[r.name] = &Node{Kind: KindDir, Mode: mode, kids: map[string]*Node{}, nlink: 1, mtime: fs.tick()}
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(path string, mode uint32) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := ""
	for _, c := range comps {
		cur += "/" + c
		if err := fs.mkdir(cur, mode); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Symlink creates a symbolic link at linkPath pointing to target.
func (fs *FS) Symlink(target, linkPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	r, err := fs.walk(linkPath, false)
	if err != nil {
		return err
	}
	if r.node != nil {
		return ErrExist
	}
	if r.parent == nil {
		return ErrExist
	}
	r.parent.kids[r.name] = &Node{Kind: KindSymlink, Mode: 0o777, Target: target, nlink: 1, mtime: fs.tick()}
	return nil
}

// Readlink returns the target of a symlink.
func (fs *FS) Readlink(path string) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lstat(path)
	if err != nil {
		return "", err
	}
	if n.Kind != KindSymlink {
		return "", ErrInvalid
	}
	return n.Target, nil
}

// Link creates a hard link newPath referring to the file at oldPath.
func (fs *FS) Link(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(oldPath)
	if err != nil {
		return err
	}
	if n.Kind == KindDir {
		return ErrPermitted
	}
	r, err := fs.walk(newPath, false)
	if err != nil {
		return err
	}
	if r.node != nil {
		return ErrExist
	}
	if r.parent == nil {
		return ErrExist
	}
	r.parent.kids[r.name] = n
	n.nlink++
	return nil
}

// Unlink removes a file or symlink (not a directory).
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	r, err := fs.walk(path, false)
	if err != nil {
		return err
	}
	if r.node == nil {
		return ErrNotExist
	}
	if r.node.Kind == KindDir {
		return ErrIsDir
	}
	delete(r.parent.kids, r.name)
	r.node.nlink--
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	r, err := fs.walk(path, false)
	if err != nil {
		return err
	}
	if r.node == nil {
		return ErrNotExist
	}
	if r.node.Kind != KindDir {
		return ErrNotDir
	}
	if len(r.node.kids) > 0 {
		return ErrNotEmpty
	}
	if r.parent == nil {
		return ErrPermitted // cannot remove "/"
	}
	delete(r.parent.kids, r.name)
	return nil
}

// Rename moves oldPath to newPath, replacing a non-directory target.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ro, err := fs.walk(oldPath, false)
	if err != nil {
		return err
	}
	if ro.node == nil {
		return ErrNotExist
	}
	rn, err := fs.walk(newPath, false)
	if err != nil {
		return err
	}
	if rn.parent == nil {
		return ErrExist
	}
	if rn.node != nil {
		if rn.node.Kind == KindDir {
			return ErrIsDir
		}
		rn.node.nlink--
	}
	rn.parent.kids[rn.name] = ro.node
	delete(ro.parent.kids, ro.name)
	ro.node.mtime = fs.tick()
	return nil
}

// Chmod sets the mode bits of the node at path.
func (fs *FS) Chmod(path string, mode uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path)
	if err != nil {
		return err
	}
	n.Mode = mode & 0o7777
	return nil
}

// Truncate resizes the file at path.
func (fs *FS) Truncate(path string, size uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path)
	if err != nil {
		return err
	}
	return fs.truncateNode(n, size)
}

// TruncateNode resizes an open file node.
func (fs *FS) TruncateNode(n *Node, size uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.truncateNode(n, size)
}

func (fs *FS) truncateNode(n *Node, size uint32) error {
	if n.Kind != KindFile {
		return ErrIsDir
	}
	if size > MaxFileSize {
		return ErrNoSpace
	}
	if int(size) <= len(n.Data) {
		n.Data = n.Data[:size]
	} else {
		n.Data = append(n.Data, make([]byte, int(size)-len(n.Data))...)
	}
	n.mtime = fs.tick()
	return nil
}

// WriteAt writes the parts of b, in order, into the file node at the
// given offset, growing it as needed, and returns the number of bytes
// written.
func (fs *FS) WriteAt(n *Node, off uint32, b ...[]byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n.Kind != KindFile {
		return 0, ErrIsDir
	}
	size := 0
	for _, p := range b {
		size += len(p)
	}
	end := int(off) + size
	if end > MaxFileSize || off > MaxFileSize {
		return 0, ErrNoSpace
	}
	if end > len(n.Data) {
		n.Data = append(n.Data, make([]byte, end-len(n.Data))...)
	}
	for _, p := range b {
		off += uint32(copy(n.Data[off:end], p))
	}
	n.mtime = fs.tick()
	return size, nil
}

// Append atomically appends b to the end of the file node and returns
// the new size. The size read and the write happen under one lock, so
// concurrent readers (a log tailer) either see none or all of b —
// never a torn suffix.
func (fs *FS) Append(n *Node, b []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n.Kind != KindFile {
		return 0, ErrIsDir
	}
	if len(n.Data)+len(b) > MaxFileSize {
		return 0, ErrNoSpace
	}
	n.Data = append(n.Data, b...)
	n.mtime = fs.tick()
	return len(n.Data), nil
}

// ReadAt reads up to len(b) bytes from the file at offset off.
func (fs *FS) ReadAt(n *Node, off uint32, b []byte) (int, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if n.Kind != KindFile {
		return 0, ErrIsDir
	}
	if int(off) >= len(n.Data) {
		return 0, nil
	}
	return copy(b, n.Data[off:]), nil
}

// ReadDir returns the sorted names of entries in the directory at path.
func (fs *FS) ReadDir(path string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.Kind != KindDir {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(n.kids))
	for name := range n.kids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// WriteFile creates path (truncating any existing file) with contents b.
func (fs *FS) WriteFile(path string, b []byte, mode uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.create(path, mode, true)
	if err != nil {
		return err
	}
	n.Data = append([]byte(nil), b...)
	n.mtime = fs.tick()
	return nil
}

// ReadFile returns a copy of the file contents at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.Kind != KindFile {
		return nil, ErrIsDir
	}
	return append([]byte(nil), n.Data...), nil
}

// Exists reports whether path resolves to an existing object.
func (fs *FS) Exists(path string) bool {
	_, err := fs.Lookup(path)
	return err == nil
}
