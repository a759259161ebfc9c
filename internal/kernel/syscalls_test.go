package kernel

import (
	"encoding/binary"
	"strings"
	"testing"

	"asc/internal/sys"
	"asc/internal/vfs"
)

// newProc builds a minimal process for direct handler tests.
func newProc(t *testing.T, k *Kernel) *Process {
	t.Helper()
	exe := buildExe(t, ".text\n.global main\nmain:\nMOVI r0, 0\nRET\n")
	p, err := k.Spawn(exe, "direct")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scratch returns a writable address inside the process stack region.
func scratch(p *Process) uint32 { return p.Mem.Limit() - 8192 }

// putStr writes a NUL-terminated string into process memory.
func putStr(t *testing.T, p *Process, addr uint32, s string) {
	t.Helper()
	if err := p.Mem.KernelWrite(addr, append([]byte(s), 0)); err != nil {
		t.Fatal(err)
	}
}

func call(k *Kernel, p *Process, num uint16, args ...uint32) uint32 {
	var a [sys.MaxArgs]uint32
	copy(a[:], args)
	ret, _ := k.dispatch(p, num, 0x1000, a)
	return ret
}

func TestHandlerOpenFlags(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	pathAddr := scratch(p)
	putStr(t, p, pathAddr, "/tmp/f")

	// O_CREAT creates; the fd is fresh (>= 3).
	fd := call(k, p, sys.SysOpen, pathAddr, OCreat|OWrOnly, 0o644)
	if int32(fd) < 3 {
		t.Fatalf("open O_CREAT = %d", int32(fd))
	}
	buf := scratch(p) + 256
	putStr(t, p, buf, "hello")
	if n := call(k, p, sys.SysWrite, fd, buf, 5); n != 5 {
		t.Fatalf("write = %d", int32(n))
	}
	// O_APPEND positions at the end.
	fd2 := call(k, p, sys.SysOpen, pathAddr, OAppend|OWrOnly, 0)
	if n := call(k, p, sys.SysWrite, fd2, buf, 5); n != 5 {
		t.Fatal("append write failed")
	}
	if b, _ := k.FS.ReadFile("/tmp/f"); string(b) != "hellohello" {
		t.Errorf("file = %q", b)
	}
	// O_TRUNC empties.
	call(k, p, sys.SysOpen, pathAddr, OTrunc|OWrOnly, 0)
	if b, _ := k.FS.ReadFile("/tmp/f"); len(b) != 0 {
		t.Errorf("after O_TRUNC: %q", b)
	}
	// Missing file without O_CREAT.
	putStr(t, p, pathAddr, "/tmp/missing")
	if r := call(k, p, sys.SysOpen, pathAddr, 0, 0); int32(r) != -sys.ENOENT {
		t.Errorf("open missing = %d", int32(r))
	}
}

func TestHandlerLseek(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	pathAddr := scratch(p)
	putStr(t, p, pathAddr, "/etc/passwd")
	fd := call(k, p, sys.SysOpen, pathAddr, 0, 0)
	if r := call(k, p, sys.SysLseek, fd, 4, SeekSet); r != 4 {
		t.Errorf("SEEK_SET = %d", r)
	}
	if r := call(k, p, sys.SysLseek, fd, 2, SeekCur); r != 6 {
		t.Errorf("SEEK_CUR = %d", r)
	}
	end := call(k, p, sys.SysLseek, fd, 0, SeekEnd)
	if end != 9 { // "root:0:0\n"
		t.Errorf("SEEK_END = %d", end)
	}
	if r := call(k, p, sys.SysLseek, fd, 0, 99); int32(r) != -sys.EINVAL {
		t.Errorf("bad whence = %d", int32(r))
	}
	if r := call(k, p, sys.SysLseek, 77, 0, 0); int32(r) != -sys.EBADF {
		t.Errorf("bad fd = %d", int32(r))
	}
}

func TestHandlerDup(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	pathAddr := scratch(p)
	putStr(t, p, pathAddr, "/etc/passwd")
	fd := call(k, p, sys.SysOpen, pathAddr, 0, 0)
	d := call(k, p, sys.SysDup, fd)
	if int32(d) < 0 || d == fd {
		t.Fatalf("dup = %d", int32(d))
	}
	if r := call(k, p, sys.SysDup2, fd, 9); r != 9 {
		t.Errorf("dup2 = %d", int32(r))
	}
	buf := scratch(p) + 512
	if n := call(k, p, sys.SysRead, 9, buf, 4); n != 4 {
		t.Errorf("read on dup2 fd = %d", int32(n))
	}
	if r := call(k, p, sys.SysDup, 100); int32(r) != -sys.EBADF {
		t.Errorf("dup bad = %d", int32(r))
	}
	if r := call(k, p, sys.SysClose, d); r != 0 {
		t.Errorf("close dup = %d", int32(r))
	}
	// The original stays usable after closing the dup.
	if n := call(k, p, sys.SysRead, fd, buf, 2); n != 2 {
		t.Errorf("read after closing dup = %d", int32(n))
	}
}

func TestHandlerGetdirentries(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	pathAddr := scratch(p)
	putStr(t, p, pathAddr, "/etc")
	fd := call(k, p, sys.SysOpen, pathAddr, 0, 0)
	buf := scratch(p) + 512
	n := call(k, p, sys.SysGetdirentries, fd, buf, 256)
	if int32(n) <= 0 {
		t.Fatalf("getdirentries = %d", int32(n))
	}
	b, _ := p.Mem.KernelRead(buf, n)
	if !strings.Contains(string(b), "passwd") {
		t.Errorf("entries = %q", b)
	}
	// Exhausted on the second call.
	if n2 := call(k, p, sys.SysGetdirentries, fd, buf, 256); n2 != 0 {
		t.Errorf("second getdirentries = %d", int32(n2))
	}
}

func TestHandlerVectorIO(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	pathAddr := scratch(p)
	putStr(t, p, pathAddr, "/tmp/v")
	fd := call(k, p, sys.SysOpen, pathAddr, OCreat|ORdWr, 0o644)
	// iovec: two segments "ab" and "cde".
	iov := scratch(p) + 512
	seg1, seg2 := iov+64, iov+96
	putStr(t, p, seg1, "ab")
	putStr(t, p, seg2, "cde")
	for i, v := range []uint32{seg1, 2, seg2, 3} {
		if err := p.Mem.KernelStore32(iov+uint32(4*i), v); err != nil {
			t.Fatal(err)
		}
	}
	if n := call(k, p, sys.SysWritev, fd, iov, 2); n != 5 {
		t.Fatalf("writev = %d", int32(n))
	}
	if b, _ := k.FS.ReadFile("/tmp/v"); string(b) != "abcde" {
		t.Errorf("file = %q", b)
	}
	call(k, p, sys.SysLseek, fd, 0, SeekSet)
	// readv back into the same iovec buffers.
	if n := call(k, p, sys.SysReadv, fd, iov, 2); n != 5 {
		t.Errorf("readv = %d", int32(n))
	}
	if r := call(k, p, sys.SysWritev, fd, iov, 100); int32(r) != -sys.EINVAL {
		t.Errorf("oversized iovec = %d", int32(r))
	}
}

func TestHandlerPReadPWrite(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	pathAddr := scratch(p)
	putStr(t, p, pathAddr, "/tmp/pr")
	fd := call(k, p, sys.SysOpen, pathAddr, OCreat|ORdWr, 0o644)
	buf := scratch(p) + 512
	putStr(t, p, buf, "XYZ")
	if n := call(k, p, sys.SysPwrite, fd, buf, 3, 10); n != 3 {
		t.Fatalf("pwrite = %d", int32(n))
	}
	// The regular offset is unmoved.
	if off := call(k, p, sys.SysLseek, fd, 0, SeekCur); off != 0 {
		t.Errorf("offset moved to %d", off)
	}
	out := buf + 64
	if n := call(k, p, sys.SysPread, fd, out, 3, 10); n != 3 {
		t.Fatalf("pread = %d", int32(n))
	}
	b, _ := p.Mem.KernelRead(out, 3)
	if string(b) != "XYZ" {
		t.Errorf("pread data = %q", b)
	}
}

func TestHandlerSockets(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	fd := call(k, p, sys.SysSocket, 2, 1, 0)
	if int32(fd) < 0 {
		t.Fatalf("socket = %d", int32(fd))
	}
	if r := call(k, p, sys.SysBind, fd, 0, 0); r != 0 {
		t.Errorf("bind = %d", int32(r))
	}
	if r := call(k, p, sys.SysListen, fd, 5); r != 0 {
		t.Errorf("listen = %d", int32(r))
	}
	conn := call(k, p, sys.SysAccept, fd, 0, 0)
	if int32(conn) < 0 {
		t.Fatalf("accept = %d", int32(conn))
	}
	buf := scratch(p)
	putStr(t, p, buf, "pkt")
	if n := call(k, p, sys.SysSendto, conn, buf, 3, 0, 0); n != 3 {
		t.Errorf("sendto = %d", int32(n))
	}
	// write on a socket also queues.
	if n := call(k, p, sys.SysWrite, conn, buf, 3); n != 3 {
		t.Errorf("write(sock) = %d", int32(n))
	}
	if r := call(k, p, sys.SysShutdown, conn, 2); r != 0 {
		t.Errorf("shutdown = %d", int32(r))
	}
	// Socket ops on a non-socket fail with ENOTSOCK, on a bad fd with
	// EBADF.
	if r := call(k, p, sys.SysBind, 1, 0, 0); int32(r) != -sys.ENOTSOCK {
		t.Errorf("bind on console = %d", int32(r))
	}
	if r := call(k, p, sys.SysBind, 200, 0, 0); int32(r) != -sys.EBADF {
		t.Errorf("bind on bad fd = %d", int32(r))
	}
	// socketpair delivers two descriptors.
	pairBuf := scratch(p) + 1024
	if r := call(k, p, sys.SysSocketpair, 1, 1, 0, pairBuf); r != 0 {
		t.Fatalf("socketpair = %d", int32(r))
	}
	b, _ := p.Mem.KernelRead(pairBuf, 8)
	a, c := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	if a == c || int32(a) < 0 || int32(c) < 0 {
		t.Errorf("socketpair fds = %d,%d", a, c)
	}
}

func TestHandlerInfoCalls(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	buf := scratch(p)
	if r := call(k, p, sys.SysUname, buf); r != 0 {
		t.Fatalf("uname = %d", int32(r))
	}
	b, _ := p.Mem.KernelRead(buf, 12)
	if !strings.HasPrefix(string(b), "ascsim") {
		t.Errorf("uname = %q", b)
	}
	if r := call(k, p, sys.SysGethostname, buf, 64); r != 0 {
		t.Errorf("gethostname = %d", int32(r))
	}
	if r := call(k, p, sys.SysStatfs, 0, buf); r != 0 {
		t.Errorf("statfs = %d", int32(r))
	}
	if r := call(k, p, sys.SysGettimeofday, buf); r != 0 {
		t.Errorf("gettimeofday = %d", int32(r))
	}
	if r := call(k, p, sys.SysSysconf, 1); r != 4096 {
		t.Errorf("sysconf = %d", r)
	}
	old := call(k, p, sys.SysUmask, 0o77)
	if old != 0o22 {
		t.Errorf("umask old = %o", old)
	}
	if again := call(k, p, sys.SysUmask, 0o22); again != 0o77 {
		t.Errorf("umask second = %o", again)
	}
	if r := call(k, p, sys.SysGetuid); r != 1000 {
		t.Errorf("getuid = %d", r)
	}
	if r := call(k, p, sys.SysGetppid); r != 1 {
		t.Errorf("getppid = %d", r)
	}
	if r := call(k, p, sys.SysGetpgrp); r != uint32(p.PID) {
		t.Errorf("getpgrp = %d", r)
	}
	secs := call(k, p, sys.SysTime, buf)
	if int32(secs) < 0 {
		t.Errorf("time = %d", int32(secs))
	}
	if r := call(k, p, sys.SysGetrusage, 0, buf); r != 0 {
		t.Errorf("getrusage = %d", int32(r))
	}
}

func TestHandlerFileMeta(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	pathAddr := scratch(p)
	buf := scratch(p) + 512
	putStr(t, p, pathAddr, "/etc/passwd")
	if r := call(k, p, sys.SysStat, pathAddr, buf); r != 0 {
		t.Fatalf("stat = %d", int32(r))
	}
	b, _ := p.Mem.KernelRead(buf, 24)
	if kind := binary.LittleEndian.Uint32(b); kind != uint32(vfs.KindFile) {
		t.Errorf("stat kind = %d", kind)
	}
	if size := binary.LittleEndian.Uint32(b[4:]); size != 9 {
		t.Errorf("stat size = %d", size)
	}
	if r := call(k, p, sys.SysAccess, pathAddr, 0); r != 0 {
		t.Errorf("access = %d", int32(r))
	}
	if r := call(k, p, sys.SysChmod, pathAddr, 0o600); r != 0 {
		t.Errorf("chmod = %d", int32(r))
	}
	if r := call(k, p, sys.SysTruncate, pathAddr, 4); r != 0 {
		t.Errorf("truncate = %d", int32(r))
	}
	fd := call(k, p, sys.SysOpen, pathAddr, ORdWr, 0)
	if r := call(k, p, sys.SysFtruncate, fd, 2); r != 0 {
		t.Errorf("ftruncate = %d", int32(r))
	}
	if r := call(k, p, sys.SysFstat, fd, buf); r != 0 {
		t.Errorf("fstat = %d", int32(r))
	}
	b, _ = p.Mem.KernelRead(buf+4, 4)
	if size := binary.LittleEndian.Uint32(b); size != 2 {
		t.Errorf("fstat size = %d", size)
	}
	// utime requires existence.
	if r := call(k, p, sys.SysUtime, pathAddr, 0); r != 0 {
		t.Errorf("utime = %d", int32(r))
	}
	putStr(t, p, pathAddr, "/nope")
	if r := call(k, p, sys.SysAccess, pathAddr, 0); int32(r) != -sys.ENOENT {
		t.Errorf("access missing = %d", int32(r))
	}
}

func TestHandlerLinksAndRename(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	a, b := scratch(p), scratch(p)+256
	putStr(t, p, a, "/etc/passwd")
	putStr(t, p, b, "/tmp/pw")
	if r := call(k, p, sys.SysLink, a, b); r != 0 {
		t.Fatalf("link = %d", int32(r))
	}
	putStr(t, p, a, "/tmp/pw")
	putStr(t, p, b, "/tmp/pw2")
	if r := call(k, p, sys.SysRename, a, b); r != 0 {
		t.Fatalf("rename = %d", int32(r))
	}
	putStr(t, p, a, "/tmp/sym")
	putStr(t, p, b, "/tmp/pw2")
	if r := call(k, p, sys.SysSymlink, b, a); r != 0 {
		t.Fatalf("symlink = %d", int32(r))
	}
	out := scratch(p) + 1024
	n := call(k, p, sys.SysReadlink, a, out, 64)
	if int32(n) <= 0 {
		t.Fatalf("readlink = %d", int32(n))
	}
	got, _ := p.Mem.KernelRead(out, n)
	if string(got) != "/tmp/pw2" {
		t.Errorf("readlink = %q", got)
	}
	if r := call(k, p, sys.SysUnlink, a); r != 0 {
		t.Errorf("unlink = %d", int32(r))
	}
}

func TestHandlerCwd(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	a := scratch(p)
	putStr(t, p, a, "/tmp")
	if r := call(k, p, sys.SysChdir, a); r != 0 {
		t.Fatalf("chdir = %d", int32(r))
	}
	buf := scratch(p) + 256
	n := call(k, p, sys.SysGetcwd, buf, 64)
	if int32(n) <= 0 {
		t.Fatalf("getcwd = %d", int32(n))
	}
	b, _ := p.Mem.KernelRead(buf, 4)
	if string(b) != "/tmp" {
		t.Errorf("cwd = %q", b)
	}
	// Relative resolution against the new cwd.
	putStr(t, p, a, "sub")
	if r := call(k, p, sys.SysMkdir, a, 0o755); r != 0 {
		t.Fatalf("mkdir rel = %d", int32(r))
	}
	if !k.FS.Exists("/tmp/sub") {
		t.Error("relative mkdir landed elsewhere")
	}
	// chdir to a file fails.
	putStr(t, p, a, "/etc/passwd")
	if r := call(k, p, sys.SysChdir, a); int32(r) != -sys.ENOTDIR {
		t.Errorf("chdir to file = %d", int32(r))
	}
	// getcwd with a too-small buffer fails.
	if r := call(k, p, sys.SysGetcwd, buf, 2); int32(r) != -sys.EINVAL {
		t.Errorf("tiny getcwd = %d", int32(r))
	}
}

func TestHandlerBrkAndMmap(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	cur := call(k, p, sys.SysBrk, 0)
	if cur == 0 {
		t.Fatal("brk(0) = 0")
	}
	grown := call(k, p, sys.SysBrk, cur+8192)
	if grown != cur+8192 {
		t.Fatalf("brk grow = %#x", grown)
	}
	// The new region is writable.
	if err := p.Mem.KernelStore32(cur+100, 42); err != nil {
		t.Errorf("heap store: %v", err)
	}
	// Out-of-range requests fail.
	if r := call(k, p, sys.SysBrk, 0x10); int32(r) != -sys.EINVAL {
		t.Errorf("brk below heap = %d", int32(r))
	}
	addr := call(k, p, sys.SysMmap, 0, 4096, 3, 0, 0)
	if int32(addr) < 0 {
		t.Fatalf("mmap = %d", int32(addr))
	}
	if r := call(k, p, sys.SysMunmap, addr, 4096); r != 0 {
		t.Errorf("munmap = %d", int32(r))
	}
}

func TestHandlerSignalsAndMisc(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	buf := scratch(p)
	// sigaction stores and returns handlers.
	if err := p.Mem.KernelStore32(buf, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if r := call(k, p, sys.SysSigaction, 2, buf, 0); r != 0 {
		t.Fatalf("sigaction set = %d", int32(r))
	}
	old := buf + 64
	if r := call(k, p, sys.SysSigaction, 2, 0, old); r != 0 {
		t.Fatalf("sigaction get = %d", int32(r))
	}
	if v, _ := p.Mem.KernelLoad32(old); v != 0xfeed {
		t.Errorf("old handler = %#x", v)
	}
	if r := call(k, p, sys.SysSigprocmask, 0, 0, buf); r != 0 {
		t.Errorf("sigprocmask = %d", int32(r))
	}
	if r := call(k, p, sys.SysAlarm, 30); r != 0 {
		t.Errorf("alarm = %d", int32(r))
	}
	if r := call(k, p, sys.SysNanosleep, 0, 0); r != 0 {
		t.Errorf("nanosleep = %d", int32(r))
	}
	// kill(self, SIGKILL) terminates.
	ret, exit := k.dispatch(p, sys.SysKill, 0, [sys.MaxArgs]uint32{uint32(p.PID), 9})
	if !exit || ret != 0 {
		t.Errorf("kill self = %d, exit=%v", int32(ret), exit)
	}
}

func TestHandlerErrnoPaths(t *testing.T) {
	k := newKernel(t, WithMode(Permissive))
	p := newProc(t, k)
	// Unknown syscall number.
	if r := call(k, p, 999); int32(r) != -sys.ENOSYS {
		t.Errorf("unknown = %d", int32(r))
	}
	// __syscall on the Linux personality.
	if r := call(k, p, sys.SysIndirect, uint32(sys.SysGetpid)); int32(r) != -sys.ENOSYS {
		t.Errorf("__syscall on linux = %d", int32(r))
	}
	// EFAULT on a wild pointer.
	if r := call(k, p, sys.SysOpen, 0x2, 0, 0); int32(r) != -sys.EFAULT {
		t.Errorf("open wild ptr = %d", int32(r))
	}
	if r := call(k, p, sys.SysRead, 50, 0, 4); int32(r) != -sys.EBADF {
		t.Errorf("read bad fd = %d", int32(r))
	}
	if r := call(k, p, sys.SysWrite, 1, 0x2, 4); int32(r) != -sys.EFAULT {
		t.Errorf("write wild buf = %d", int32(r))
	}
	if r := call(k, p, sys.SysIoctl, 77, 0, 0); int32(r) != -sys.EBADF {
		t.Errorf("ioctl bad fd = %d", int32(r))
	}
	if r := call(k, p, sys.SysFcntl, 77, 0, 0); int32(r) != -sys.EBADF {
		t.Errorf("fcntl bad fd = %d", int32(r))
	}
	if r := call(k, p, sys.SysClose, 77); int32(r) != -sys.EBADF {
		t.Errorf("close bad fd = %d", int32(r))
	}
	// Writing beyond the disk quota reports ENOSPC.
	a := scratch(p)
	putStr(t, p, a, "/tmp/big")
	if r := call(k, p, sys.SysTruncate, a, 0); int32(r) != -sys.ENOENT {
		t.Errorf("truncate missing = %d", int32(r))
	}
	fd := call(k, p, sys.SysOpen, a, OCreat|OWrOnly, 0o644)
	if r := call(k, p, sys.SysFtruncate, fd, 0xffffff00); int32(r) != -sys.ENOSPC {
		t.Errorf("huge ftruncate = %d", int32(r))
	}
}

func TestHandlerIndirectOpenBSDRecursionGuard(t *testing.T) {
	fs := vfs.New()
	k, err := New(fs, nil, WithMode(Permissive), WithPersonality(OpenBSD))
	if err != nil {
		t.Fatal(err)
	}
	p := newProc(t, k)
	// __syscall(__syscall, ...) must not recurse.
	if r := call(k, p, sys.SysIndirect, uint32(sys.SysIndirect)); int32(r) != -sys.EINVAL {
		t.Errorf("indirect recursion = %d", int32(r))
	}
	// __syscall(getpid) dispatches.
	if r := call(k, p, sys.SysIndirect, uint32(sys.SysGetpid)); r != uint32(p.PID) {
		t.Errorf("indirect getpid = %d", r)
	}
}

// TestSyscallIntoReadOnlySegmentFaults: like copy_to_user, a syscall
// result aimed at read-only .text or .rodata returns EFAULT and stores
// nothing, so the process still runs exactly as an untouched one.
func TestSyscallIntoReadOnlySegmentFaults(t *testing.T) {
	exe := buildExe(t, ckptLoopSrc)
	want := runProc(t, newKernel(t, WithMode(Permissive)), exe, "")
	k := newKernel(t, WithMode(Permissive))
	p, err := k.Spawn(exe, "ro")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, seg := range p.Mem.Segments() {
		if seg.Name != ".text" && seg.Name != ".rodata" {
			continue
		}
		checked++
		before, err := p.Mem.KernelRead(seg.Start, 8)
		if err != nil {
			t.Fatal(err)
		}
		before = append([]byte(nil), before...)
		if r := call(k, p, sys.SysGetcwd, seg.Start, 64); int32(r) != -sys.EFAULT {
			t.Errorf("getcwd into %s = %d, want -EFAULT", seg.Name, int32(r))
		}
		if after, _ := p.Mem.KernelRead(seg.Start, 8); string(after) != string(before) {
			t.Errorf("getcwd into %s rewrote % x to % x", seg.Name, before, after)
		}
	}
	if checked != 2 {
		t.Fatalf("found %d of the .text and .rodata segments", checked)
	}
	if err := k.Run(p, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Output() != want.Output() || p.Code != want.Code || p.Killed {
		t.Fatalf("run after the faulting calls: output %q code %d killed %v; want %q code %d",
			p.Output(), p.Code, p.Killed, want.Output(), want.Code)
	}
}
