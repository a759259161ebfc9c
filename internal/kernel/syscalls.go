// syscalls.go implements the system call table: ~90 handlers over the
// in-memory VFS and process state. Handlers return the value placed in R0
// (failures return -errno as an unsigned value) and whether the process
// terminated.
package kernel

import (
	"encoding/binary"
	"errors"
	"slices"

	"asc/internal/binfmt"
	"asc/internal/sys"
	"asc/internal/vfs"
	"asc/internal/vm"
)

// Open flags (platform ABI).
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
	// ONonblock is a status flag (fcntl F_SETFL), not an open mode:
	// only sockets honour it, turning would-park operations into EAGAIN.
	ONonblock = 0x800
)

// fcntl commands.
const (
	FGetFL = 3
	FSetFL = 4
)

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// errno converts an error to a -errno return value.
func errno(e int) uint32 { return uint32(-e) }

// vfsErrno maps vfs errors to errno returns.
func vfsErrno(err error) uint32 {
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return errno(sys.ENOENT)
	case errors.Is(err, vfs.ErrExist):
		return errno(sys.EEXIST)
	case errors.Is(err, vfs.ErrNotDir):
		return errno(sys.ENOTDIR)
	case errors.Is(err, vfs.ErrIsDir):
		return errno(sys.EISDIR)
	case errors.Is(err, vfs.ErrNotEmpty):
		return errno(sys.ENOTEMPTY)
	case errors.Is(err, vfs.ErrLoop):
		return errno(sys.ELOOP)
	case errors.Is(err, vfs.ErrNameLong):
		return errno(sys.ENAMETOOLONG)
	case errors.Is(err, vfs.ErrPermitted):
		return errno(sys.EPERM)
	case errors.Is(err, vfs.ErrNoSpace):
		return errno(sys.ENOSPC)
	default:
		return errno(sys.EINVAL)
	}
}

// dispatch executes one system call.
func (k *Kernel) dispatch(p *Process, num uint16, site uint32, args [sys.MaxArgs]uint32) (uint32, bool) {
	if cost, ok := handlerCost[num]; ok {
		p.CPU.Cycles += cost
	} else {
		p.CPU.Cycles += defaultHandlerCost
	}
	switch num {
	case sys.SysExit:
		p.Exited = true
		p.Code = args[0]
		return 0, true
	case sys.SysRead:
		return k.sysRead(p, args[0], args[1], args[2]), false
	case sys.SysWrite:
		return k.sysWrite(p, args[0], args[1], args[2]), false
	case sys.SysOpen:
		return k.sysOpen(p, args[0], args[1], args[2]), false
	case sys.SysClose:
		return k.sysClose(p, args[0]), false
	case sys.SysStat:
		return k.sysStat(p, args[0], args[1], true), false
	case sys.SysFstat:
		return k.sysFstat(p, args[0], args[1]), false
	case sys.SysLseek:
		return k.sysLseek(p, args[0], args[1], args[2]), false
	case sys.SysBrk:
		return k.sysBrk(p, args[0]), false
	case sys.SysMmap:
		if p.pager != nil {
			return k.sysMmapPaged(p, args[0], args[1], args[2], args[3], args[4]), false
		}
		return k.sysMmap(p, args[1]), false
	case sys.SysMunmap:
		if p.pager != nil {
			return k.sysMunmapPaged(p, args[0], args[1]), false
		}
		return 0, false
	case sys.SysMprotect:
		if p.pager != nil {
			return k.sysMprotectPaged(p, args[0], args[1], args[2]), false
		}
		return 0, false
	case sys.SysMadvise, sys.SysMsync:
		return 0, false
	case sys.SysGetpid:
		return uint32(p.PID), false
	case sys.SysGettimeofday:
		return k.sysGettimeofday(p, args[0]), false
	case sys.SysMkdir:
		return k.pathCall1(p, args[0], func(path string) error { return k.FS.Mkdir(path, 0o777&^p.umask) }), false
	case sys.SysRmdir:
		return k.pathCall1(p, args[0], k.FS.Rmdir), false
	case sys.SysUnlink:
		return k.pathCall1(p, args[0], k.FS.Unlink), false
	case sys.SysReadlink:
		return k.sysReadlink(p, args[0], args[1], args[2]), false
	case sys.SysSymlink:
		return k.sysSymlink(p, args[0], args[1]), false
	case sys.SysChdir:
		return k.sysChdir(p, args[0]), false
	case sys.SysGetcwd:
		return k.sysGetcwd(p, args[0], args[1]), false
	case sys.SysDup:
		return k.sysDup(p, args[0]), false
	case sys.SysDup2:
		return k.sysDup2(p, args[0], args[1]), false
	case sys.SysPipe:
		return k.sysPipe(p, args[0]), false
	case sys.SysExecve:
		return k.sysExecve(p, args[0])
	case sys.SysKill:
		return k.sysKill(p, args[0], args[1])
	case sys.SysSocket:
		return k.sysSocket(p, args[0], args[1], args[2]), false
	case sys.SysSendto:
		return k.sysSendto(p, args[0], args[1], args[2], args[4]), false
	case sys.SysRecvfrom:
		return k.sysRecvfrom(p, args[0], args[1], args[2], args[4]), false
	case sys.SysBind:
		return k.sysBind(p, args[0], args[1]), false
	case sys.SysConnect:
		return k.sysConnect(p, args[0], args[1]), false
	case sys.SysListen:
		return k.sysListen(p, args[0], args[1]), false
	case sys.SysShutdown:
		return k.sysShutdown(p, args[0]), false
	case sys.SysSetsockopt, sys.SysGetsockopt:
		return k.sockCheck(p, args[0]), false
	case sys.SysAccept:
		return k.sysAccept(p, args[0], args[1]), false
	case sys.SysGetsockname, sys.SysGetpeername:
		return k.sysSockname(p, args[0], args[1], num == sys.SysGetpeername), false
	case sys.SysSocketpair:
		return k.sysSocketpair(p, args[3]), false
	case sys.SysSigaction:
		return k.sysSigaction(p, args[0], args[1], args[2]), false
	case sys.SysNanosleep:
		p.CPU.Cycles += 1000 // modeled sleep latency
		return 0, false
	case sys.SysFcntl:
		return k.sysFcntl(p, args[0], args[1], args[2]), false
	case sys.SysGetdirentries:
		return k.sysGetdirentries(p, args[0], args[1], args[2]), false
	case sys.SysFstatfs, sys.SysStatfs:
		return k.sysStatfs(p, args[1]), false
	case sys.SysUname:
		return k.sysUname(p, args[0]), false
	case sys.SysSysconf:
		return 4096, false
	case sys.SysWritev:
		return k.sysWritev(p, args[0], args[1], args[2]), false
	case sys.SysReadv:
		return k.sysReadv(p, args[0], args[1], args[2]), false
	case sys.SysUmask:
		old := p.umask
		p.umask = args[0] & 0o777
		return old, false
	case sys.SysChmod:
		return k.pathCall1(p, args[0], func(path string) error { return k.FS.Chmod(path, args[1]) }), false
	case sys.SysGetuid, sys.SysGeteuid:
		return 1000, false
	case sys.SysGetgid, sys.SysGetegid:
		return 100, false
	case sys.SysGetppid:
		return 1, false
	case sys.SysGetpgrp, sys.SysSetsid:
		return uint32(p.PID), false
	case sys.SysTime:
		return k.sysTime(p, args[0]), false
	case sys.SysRename:
		return k.pathCall2(p, args[0], args[1], k.FS.Rename), false
	case sys.SysLink:
		return k.pathCall2(p, args[0], args[1], k.FS.Link), false
	case sys.SysAccess:
		return k.sysAccess(p, args[0]), false
	case sys.SysFtruncate:
		return k.sysFtruncate(p, args[0], args[1]), false
	case sys.SysTruncate:
		return k.pathCall1(p, args[0], func(path string) error { return k.FS.Truncate(path, args[1]) }), false
	case sys.SysSync, sys.SysFsync, sys.SysFlock:
		return 0, false
	case sys.SysIoctl:
		if p.fd(args[0]) == nil {
			return errno(sys.EBADF), false
		}
		return 0, false
	case sys.SysSigprocmask:
		return k.writeZeros(p, args[2], 4), false
	case sys.SysAlarm, sys.SysPause:
		return 0, false
	case sys.SysUtime:
		return k.pathCall1(p, args[0], func(path string) error {
			_, err := k.FS.Lookup(path)
			return err
		}), false
	case sys.SysGetrlimit, sys.SysGetrusage, sys.SysTimes:
		return k.writeZeros(p, args[1], 16), false
	case sys.SysSetrlimit:
		return 0, false
	case sys.SysGethostname:
		return k.sysGethostname(p, args[0], args[1]), false
	case sys.SysPoll:
		return k.sysPoll(p, args[0], args[1], args[2]), false
	case sys.SysSelect:
		return k.sysSelect(p, args[0], args[1], args[2], args[3], args[4]), false
	case sys.SysPread:
		return k.sysPRead(p, args[0], args[1], args[2], args[3]), false
	case sys.SysPwrite:
		return k.sysPWrite(p, args[0], args[1], args[2], args[3]), false
	case sys.SysFchmod, sys.SysFchown, sys.SysChown:
		return 0, false
	case sys.SysWait4:
		return 0, false
	case sys.SysGetgroups:
		return 0, false
	case sys.SysIndirect:
		if k.Personality != OpenBSD {
			return errno(sys.ENOSYS), false
		}
		var shifted [sys.MaxArgs]uint32
		copy(shifted[:], args[1:])
		target := uint16(args[0])
		if target == sys.SysIndirect {
			return errno(sys.EINVAL), false
		}
		return k.dispatch(p, target, site, shifted)
	default:
		return errno(sys.ENOSYS), false
	}
}

// writeZeros zero-fills an optional user buffer (addr 0 skips it) and
// returns 0, or EFAULT if the buffer is not writable.
func (k *Kernel) writeZeros(p *Process, addr, n uint32) uint32 {
	if addr != 0 && p.Mem.UserWrite(addr, make([]byte, n)) != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

func (k *Kernel) pathCall1(p *Process, pathAddr uint32, f func(string) error) uint32 {
	path, ok := p.readPath(pathAddr)
	if !ok {
		return errno(sys.EFAULT)
	}
	if err := f(path); err != nil {
		return vfsErrno(err)
	}
	return 0
}

func (k *Kernel) pathCall2(p *Process, a1, a2 uint32, f func(string, string) error) uint32 {
	p1, ok := p.readPath(a1)
	if !ok {
		return errno(sys.EFAULT)
	}
	p2, ok := p.readPath(a2)
	if !ok {
		return errno(sys.EFAULT)
	}
	if err := f(p1, p2); err != nil {
		return vfsErrno(err)
	}
	return 0
}

func (k *Kernel) sysOpen(p *Process, pathAddr, flags, mode uint32) uint32 {
	path, ok := p.readPath(pathAddr)
	if !ok {
		return errno(sys.EFAULT)
	}
	var node *vfs.Node
	var err error
	if flags&OCreat != 0 {
		node, err = k.FS.Create(path, mode&^p.umask, flags&OTrunc != 0)
	} else {
		node, err = k.FS.Lookup(path)
		if err == nil && node.Kind == vfs.KindFile && flags&OTrunc != 0 {
			err = k.FS.TruncateNode(node, 0)
		}
	}
	if err != nil {
		return vfsErrno(err)
	}
	e := &fdEntry{kind: fdFile, node: node, path: path}
	if flags&OAppend != 0 {
		e.offset = k.FS.NodeSize(node)
	}
	fd, ok := p.allocFD(e)
	if !ok {
		return errno(sys.ENFILE)
	}
	return uint32(fd)
}

func (k *Kernel) sysClose(p *Process, fd uint32) uint32 {
	e := p.fd(fd)
	if e == nil {
		return errno(sys.EBADF)
	}
	if e.pipe != nil && e.kind == fdPipeW {
		e.pipe.closed = true
	}
	if e.kind == fdSocket && e.sock != nil {
		if e.sock.conn != nil {
			e.sock.conn.Close()
		}
		if e.sock.lis != nil {
			e.sock.lis.Close()
		}
	}
	p.fds[fd] = nil
	return 0
}

func (k *Kernel) sysRead(p *Process, fd, buf, n uint32) uint32 {
	e := p.fd(fd)
	if e == nil {
		return errno(sys.EBADF)
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	tmp := make([]byte, n)
	var got int
	switch e.kind {
	case fdConsole:
		remain := len(p.Stdin) - p.stdinPos
		if remain <= 0 {
			got = 0
		} else {
			got = copy(tmp, p.Stdin[p.stdinPos:])
			p.stdinPos += got
		}
	case fdFile:
		var err error
		got, err = k.FS.ReadAt(e.node, e.offset, tmp)
		if err != nil {
			return vfsErrno(err)
		}
		e.offset += uint32(got)
	case fdPipeR:
		got = copy(tmp, e.pipe.data)
		e.pipe.data = e.pipe.data[got:]
	case fdSocket:
		// read on a connected socket is recvfrom without a source slot.
		if k.Net != nil {
			return k.sysRecvfrom(p, fd, buf, n, 0)
		}
		return errno(sys.EINVAL)
	default:
		return errno(sys.EINVAL)
	}
	if got > 0 {
		if err := p.Mem.UserWrite(buf, tmp[:got]); err != nil {
			return errno(sys.EFAULT)
		}
	}
	p.CPU.Cycles += uint64(got) * k.Costs.ReadPerByte / 1000
	return uint32(got)
}

func (k *Kernel) sysWrite(p *Process, fd, buf, n uint32) uint32 {
	e := p.fd(fd)
	if e == nil {
		return errno(sys.EBADF)
	}
	if n > 1<<20 {
		return errno(sys.EINVAL)
	}
	// The buffer, one view per page, is copied once: straight into its
	// destination.
	var iov [2][]byte
	parts, err := p.Mem.KernelPieces(iov[:0], buf, n)
	if err != nil {
		return errno(sys.EFAULT)
	}
	switch e.kind {
	case fdConsole:
		for _, b := range parts {
			p.Stdout = append(p.Stdout, b...)
		}
	case fdFile:
		if _, err := k.FS.WriteAt(e.node, e.offset, parts...); err != nil {
			return vfsErrno(err)
		}
		e.offset += n
	case fdPipeW:
		for _, b := range parts {
			e.pipe.data = append(e.pipe.data, b...)
		}
	case fdSocket:
		// write on a connected socket is sendto without a destination.
		if k.Net != nil {
			return k.sysSendto(p, fd, buf, n, 0)
		}
		e.sock.sent = append(e.sock.sent, slices.Concat(parts...))
	default:
		return errno(sys.EINVAL)
	}
	p.CPU.Cycles += uint64(n) * k.Costs.WritePerByte / 1000
	return n
}

// statBuf renders the 24-byte stat structure from a locked metadata
// snapshot.
func statBuf(info vfs.Info) []byte {
	out := make([]byte, 24)
	binary.LittleEndian.PutUint32(out[0:], uint32(info.Kind))
	binary.LittleEndian.PutUint32(out[4:], info.Size)
	binary.LittleEndian.PutUint32(out[8:], info.Mode)
	binary.LittleEndian.PutUint32(out[12:], uint32(info.Nlink))
	binary.LittleEndian.PutUint64(out[16:], info.Mtime)
	return out
}

func (k *Kernel) sysStat(p *Process, pathAddr, buf uint32, follow bool) uint32 {
	path, ok := p.readPath(pathAddr)
	if !ok {
		return errno(sys.EFAULT)
	}
	info, err := k.FS.Stat(path, follow)
	if err != nil {
		return vfsErrno(err)
	}
	if err := p.Mem.UserWrite(buf, statBuf(info)); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

func (k *Kernel) sysFstat(p *Process, fd, buf uint32) uint32 {
	e := p.fd(fd)
	if e == nil {
		return errno(sys.EBADF)
	}
	if e.kind != fdFile {
		return k.writeZeros(p, buf, 24)
	}
	if err := p.Mem.UserWrite(buf, statBuf(k.FS.InfoOf(e.node))); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

func (k *Kernel) sysLseek(p *Process, fd, off, whence uint32) uint32 {
	e := p.fd(fd)
	if e == nil || e.kind != fdFile {
		return errno(sys.EBADF)
	}
	var base uint32
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = e.offset
	case SeekEnd:
		base = k.FS.NodeSize(e.node)
	default:
		return errno(sys.EINVAL)
	}
	e.offset = base + off
	return e.offset
}

func (k *Kernel) sysBrk(p *Process, addr uint32) uint32 {
	if addr == 0 {
		return p.brk
	}
	start := heapStartOf(p)
	ceiling := p.Mem.Limit() - DefaultStackSize
	if p.pager != nil {
		// Paged mode: the mmap arena sits between heap and stack.
		ceiling = p.pager.pt.Base()
	}
	if addr < start || addr >= ceiling {
		return errno(sys.EINVAL)
	}
	if addr < p.brk {
		// Scrub what the heap gives up while the heap segment still
		// covers it, as an application write: the pages above the break
		// are freed, the partial page is cleared, and the heap's store
		// generation moves, so no cached verification over those bytes
		// can hit. The heap's pages belong to no other segment, so the
		// scrub runs to the end of the old break's page.
		p.Mem.Zero(addr, (p.brk+vm.PageSize-1)&^(vm.PageSize-1)-addr)
		p.Mem.BumpGeneration(addr, p.brk-addr)
	}
	p.brk = addr
	p.Mem.Map(vm.Segment{Name: "heap", Start: start, End: addr, Perms: vm.PermRead | vm.PermWrite})
	return p.brk
}

func heapStartOf(p *Process) uint32 {
	for _, s := range p.Mem.Segments() {
		if s.Name == "heap" {
			return s.Start
		}
	}
	return p.brk
}

func (k *Kernel) sysMmap(p *Process, length uint32) uint32 {
	// Anonymous mapping from the top of the heap.
	base := p.brk
	newBrk := (base + length + 0xfff) &^ 0xfff
	if r := k.sysBrk(p, newBrk); int32(r) < 0 {
		return r
	}
	return base
}

func (k *Kernel) sysGettimeofday(p *Process, buf uint32) uint32 {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint32(out[0:], uint32(p.CPU.Cycles/1_000_000))
	binary.LittleEndian.PutUint32(out[4:], uint32(p.CPU.Cycles%1_000_000))
	if err := p.Mem.UserWrite(buf, out); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

func (k *Kernel) sysTime(p *Process, buf uint32) uint32 {
	secs := uint32(p.CPU.Cycles / 1_000_000)
	if buf != 0 {
		out := make([]byte, 4)
		binary.LittleEndian.PutUint32(out, secs)
		if err := p.Mem.UserWrite(buf, out); err != nil {
			return errno(sys.EFAULT)
		}
	}
	return secs
}

func (k *Kernel) sysReadlink(p *Process, pathAddr, buf, n uint32) uint32 {
	path, ok := p.readPath(pathAddr)
	if !ok {
		return errno(sys.EFAULT)
	}
	target, err := k.FS.Readlink(path)
	if err != nil {
		return vfsErrno(err)
	}
	b := []byte(target)
	if uint32(len(b)) > n {
		b = b[:n]
	}
	if err := p.Mem.UserWrite(buf, b); err != nil {
		return errno(sys.EFAULT)
	}
	return uint32(len(b))
}

func (k *Kernel) sysSymlink(p *Process, targetAddr, linkAddr uint32) uint32 {
	target, err := p.Mem.CString(targetAddr, 4096)
	if err != nil {
		return errno(sys.EFAULT)
	}
	link, ok := p.readPath(linkAddr)
	if !ok {
		return errno(sys.EFAULT)
	}
	if err := k.FS.Symlink(target, link); err != nil {
		return vfsErrno(err)
	}
	return 0
}

func (k *Kernel) sysChdir(p *Process, pathAddr uint32) uint32 {
	path, ok := p.readPath(pathAddr)
	if !ok {
		return errno(sys.EFAULT)
	}
	norm, err := k.FS.Normalize(path)
	if err != nil {
		return vfsErrno(err)
	}
	node, err := k.FS.Lookup(norm)
	if err != nil {
		return vfsErrno(err)
	}
	if node.Kind != vfs.KindDir {
		return errno(sys.ENOTDIR)
	}
	p.cwd = norm
	return 0
}

func (k *Kernel) sysGetcwd(p *Process, buf, n uint32) uint32 {
	b := append([]byte(p.cwd), 0)
	if uint32(len(b)) > n {
		return errno(sys.EINVAL)
	}
	if err := p.Mem.UserWrite(buf, b); err != nil {
		return errno(sys.EFAULT)
	}
	return uint32(len(b))
}

func (k *Kernel) sysDup(p *Process, fd uint32) uint32 {
	e := p.fd(fd)
	if e == nil {
		return errno(sys.EBADF)
	}
	cp := *e
	nfd, ok := p.allocFD(&cp)
	if !ok {
		return errno(sys.ENFILE)
	}
	return uint32(nfd)
}

func (k *Kernel) sysDup2(p *Process, fd, newfd uint32) uint32 {
	e := p.fd(fd)
	if e == nil || newfd >= maxFDs {
		return errno(sys.EBADF)
	}
	for int(newfd) >= len(p.fds) {
		p.fds = append(p.fds, nil)
	}
	cp := *e
	p.fds[newfd] = &cp
	return newfd
}

func (k *Kernel) sysPipe(p *Process, buf uint32) uint32 {
	pb := &pipeBuf{}
	r, ok1 := p.allocFD(&fdEntry{kind: fdPipeR, pipe: pb})
	w, ok2 := p.allocFD(&fdEntry{kind: fdPipeW, pipe: pb})
	if !ok1 || !ok2 {
		return errno(sys.ENFILE)
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint32(out[0:], uint32(r))
	binary.LittleEndian.PutUint32(out[4:], uint32(w))
	if err := p.Mem.UserWrite(buf, out); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

func (k *Kernel) sysExecve(p *Process, pathAddr uint32) (uint32, bool) {
	path, ok := p.readPath(pathAddr)
	if !ok {
		return errno(sys.EFAULT), false
	}
	b, err := k.FS.ReadFile(path)
	if err != nil {
		return vfsErrno(err), false
	}
	f, err := binfmt.Read(b)
	if err != nil {
		return errno(sys.EINVAL), false
	}
	if err := p.loadImage(f); err != nil {
		return errno(sys.EINVAL), false
	}
	p.Name = path
	p.CPU.Cycles += 20000 // exec cost: address space teardown + load
	return 0, false
}

func (k *Kernel) sysKill(p *Process, pid, sig uint32) (uint32, bool) {
	if pid == uint32(p.PID) && sig == 9 {
		p.Exited = true
		p.Code = 128 + 9
		return 0, true
	}
	return 0, false
}

func (k *Kernel) sysSigaction(p *Process, sig, act, oldact uint32) uint32 {
	if oldact != 0 {
		old := make([]byte, 4)
		binary.LittleEndian.PutUint32(old, p.sigHandlers[sig])
		if err := p.Mem.UserWrite(oldact, old); err != nil {
			return errno(sys.EFAULT)
		}
	}
	if act != 0 {
		h, err := p.Mem.KernelLoad32(act)
		if err != nil {
			return errno(sys.EFAULT)
		}
		p.sigHandlers[sig] = h
	}
	return 0
}

func (k *Kernel) sysFcntl(p *Process, fd, cmd, arg uint32) uint32 {
	e := p.fd(fd)
	if e == nil {
		return errno(sys.EBADF)
	}
	switch cmd {
	case FGetFL:
		if e.kind == fdSocket && e.sock != nil && e.sock.nonblock {
			return ONonblock
		}
		return 0
	case FSetFL:
		// Only sockets carry a blocking mode; other descriptors accept
		// and ignore the flags (the historical stub behaviour).
		if e.kind == fdSocket && e.sock != nil {
			e.sock.nonblock = arg&ONonblock != 0
		}
		return 0
	default:
		return 0
	}
}

func (k *Kernel) sysGetdirentries(p *Process, fd, buf, n uint32) uint32 {
	e := p.fd(fd)
	if e == nil || e.kind != fdFile {
		return errno(sys.EBADF)
	}
	names, err := k.FS.ReadDir(e.path)
	if err != nil {
		return vfsErrno(err)
	}
	// offset is the index of the next entry to deliver.
	var out []byte
	idx := e.offset
	for int(idx) < len(names) {
		entry := append([]byte(names[idx]), 0)
		if uint32(len(out)+len(entry)) > n {
			break
		}
		out = append(out, entry...)
		idx++
	}
	e.offset = idx
	if len(out) == 0 {
		return 0
	}
	if err := p.Mem.UserWrite(buf, out); err != nil {
		return errno(sys.EFAULT)
	}
	return uint32(len(out))
}

func (k *Kernel) sysStatfs(p *Process, buf uint32) uint32 {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint32(out[0:], 4096)        // block size
	binary.LittleEndian.PutUint32(out[4:], 1<<20)       // blocks
	binary.LittleEndian.PutUint32(out[8:], 1<<19)       // free
	binary.LittleEndian.PutUint32(out[12:], 0x53454c46) // fs type "SELF"
	if err := p.Mem.UserWrite(buf, out); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

func (k *Kernel) sysUname(p *Process, buf uint32) uint32 {
	out := make([]byte, 32)
	name := "ascsim-linux"
	if k.Personality == OpenBSD {
		name = "ascsim-openbsd"
	}
	copy(out, name)
	copy(out[16:], "1.0")
	if err := p.Mem.UserWrite(buf, out); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

func (k *Kernel) sysGethostname(p *Process, buf, n uint32) uint32 {
	b := []byte("ascsim\x00")
	if uint32(len(b)) > n {
		b = b[:n]
	}
	if err := p.Mem.UserWrite(buf, b); err != nil {
		return errno(sys.EFAULT)
	}
	return 0
}

// iovec is {ptr uint32, len uint32}.
func (k *Kernel) sysWritev(p *Process, fd, iov, cnt uint32) uint32 {
	if cnt > 64 {
		return errno(sys.EINVAL)
	}
	var total uint32
	for i := uint32(0); i < cnt; i++ {
		ptr, err1 := p.Mem.KernelLoad32(iov + 8*i)
		n, err2 := p.Mem.KernelLoad32(iov + 8*i + 4)
		if err1 != nil || err2 != nil {
			return errno(sys.EFAULT)
		}
		r := k.sysWrite(p, fd, ptr, n)
		if int32(r) < 0 {
			return r
		}
		total += r
	}
	return total
}

func (k *Kernel) sysReadv(p *Process, fd, iov, cnt uint32) uint32 {
	if cnt > 64 {
		return errno(sys.EINVAL)
	}
	var total uint32
	for i := uint32(0); i < cnt; i++ {
		ptr, err1 := p.Mem.KernelLoad32(iov + 8*i)
		n, err2 := p.Mem.KernelLoad32(iov + 8*i + 4)
		if err1 != nil || err2 != nil {
			return errno(sys.EFAULT)
		}
		r := k.sysRead(p, fd, ptr, n)
		if int32(r) < 0 {
			return r
		}
		total += r
		if r < n {
			break
		}
	}
	return total
}

func (k *Kernel) sysAccess(p *Process, pathAddr uint32) uint32 {
	path, ok := p.readPath(pathAddr)
	if !ok {
		return errno(sys.EFAULT)
	}
	if !k.FS.Exists(path) {
		return errno(sys.ENOENT)
	}
	return 0
}

func (k *Kernel) sysFtruncate(p *Process, fd, size uint32) uint32 {
	e := p.fd(fd)
	if e == nil || e.kind != fdFile {
		return errno(sys.EBADF)
	}
	if err := k.FS.TruncateNode(e.node, size); err != nil {
		return vfsErrno(err)
	}
	return 0
}

func (k *Kernel) sysPRead(p *Process, fd, buf, n, off uint32) uint32 {
	e := p.fd(fd)
	if e == nil || e.kind != fdFile {
		return errno(sys.EBADF)
	}
	saved := e.offset
	e.offset = off
	r := k.sysRead(p, fd, buf, n)
	e.offset = saved
	return r
}

func (k *Kernel) sysPWrite(p *Process, fd, buf, n, off uint32) uint32 {
	e := p.fd(fd)
	if e == nil || e.kind != fdFile {
		return errno(sys.EBADF)
	}
	saved := e.offset
	e.offset = off
	r := k.sysWrite(p, fd, buf, n)
	e.offset = saved
	return r
}
