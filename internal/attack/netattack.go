// Network attacks: the socket syscall family widens the authenticated
// surface, and each widening gets an attack probing it. The victims run
// on a loopback network over a socketpair (no peer process needed), so
// the experiments stay single-process like the rest of the battery.
//
//   - Forged send site: overwrite the victim's sendto auth record with a
//     write record harvested from a donor program. Blocked because the
//     donor's MAC covers the donor's call encoding, not a sendto at this
//     site.
//   - Destination tampering: patch the installed MOVI that loads the
//     constant packed sockaddr, redirecting the victim's traffic to a
//     different port. The code runs — nothing re-verifies text — but the
//     live register no longer matches the policy-constrained immediate
//     covered by the call MAC.
//   - Control-flow state replay: guest code snapshots the 20-byte
//     {lastBlock, MAC} policy state of its recvfrom site (the .auth
//     section is app-writable by design — the monitor assumes a
//     compromised application can scribble anywhere in its own memory),
//     lets one more recvfrom advance it, then stores the stale bytes
//     back. Blocked by the memory checker: the rolled-back MAC was
//     computed against an older value of the kernel's private counter.
package attack

import (
	"fmt"

	"asc/internal/binfmt"
	"asc/internal/cfg"
	"asc/internal/installer"
	"asc/internal/isa"
	"asc/internal/kernel"
	anet "asc/internal/net"
	"asc/internal/sys"
)

// netVictimSource pumps one constant payload across a socketpair: a
// sendto with an authenticated-string payload and a constant packed
// destination address, then the matching recvfrom.
const netVictimSource = `
        .text
        .global main
main:
        MOVI r1, 1
        MOVI r2, 1
        MOVI r3, 0
        MOVI r4, pairbuf
        CALL socketpair
        MOVI r7, pairbuf
        LOAD r15, [r7+0]
        LOAD r13, [r7+4]
        MOV r1, r15
        MOVI r2, pmsg
        MOVI r3, 8
        MOVI r4, 0
        MOVI r5, 0x02000007     ; packed AF_INET sockaddr, port 7
        CALL sendto
        MOV r1, r13
        MOVI r2, iobuf
        MOVI r3, 64
        MOVI r4, 0
        MOVI r5, 0
        CALL recvfrom
        MOVI r1, donemsg
        CALL puts
        MOVI r0, 0
        RET
        .rodata
pmsg:   .asciz "payload"
donemsg: .asciz "net victim done\n"
        .bss
pairbuf: .space 8
iobuf:  .space 64
`

// netRouteSource is a miniature LB client: a two-entry replica route
// table rendered the way the sharded workload renders it — each send
// site loads its replica's packed sockaddr as a MOVI immediate. The
// socketpair stands in for the fleet so the experiment stays
// single-process; what matters is that the route constants are
// policy-constrained immediates, exactly as in NetLBClientSource.
const netRouteSource = `
        .text
        .global main
main:
        MOVI r1, 1
        MOVI r2, 1
        MOVI r3, 0
        MOVI r4, pairbuf
        CALL socketpair
        MOVI r7, pairbuf
        LOAD r15, [r7+0]
        LOAD r13, [r7+4]
        MOV r1, r15
        MOVI r2, req0
        MOVI r3, 10
        MOVI r4, 0
        MOVI r5, 0x02001f40     ; route: replica 0, port 8000
        CALL sendto
        MOV r1, r15
        MOVI r2, req1
        MOVI r3, 10
        MOVI r4, 0
        MOVI r5, 0x02001f41     ; route: replica 1, port 8001
        CALL sendto
        MOV r1, r13
        MOVI r2, iobuf
        MOVI r3, 64
        MOVI r4, 0
        MOVI r5, 0
        CALL recvfrom
        MOV r1, r13
        MOVI r2, iobuf
        MOVI r3, 64
        MOVI r4, 0
        MOVI r5, 0
        CALL recvfrom
        MOVI r1, donemsg
        CALL puts
        MOVI r0, 0
        RET
        .rodata
req0:   .asciz "S0aaaaaaaa"
req1:   .asciz "S4aaaaaaaa"
donemsg: .asciz "routes done\n"
        .bss
pairbuf: .space 8
iobuf:  .space 64
`

// netReplaySource is the control-flow replay victim. It queues three
// messages, then around its second recvfrom saves and restores the
// site's policy state: after a CALL to an installed stub, r6 still
// holds that site's auth record address, and the record's word at
// offset 12 points at the {lastBlock, MAC} state in .auth.
const netReplaySource = `
        .text
        .global main
main:
        MOVI r1, 1
        MOVI r2, 1
        MOVI r3, 0
        MOVI r4, pairbuf
        CALL socketpair
        MOVI r7, pairbuf
        LOAD r15, [r7+0]
        LOAD r13, [r7+4]
        ; queue three messages so no recvfrom ever blocks
        MOVI r11, 3
.fill:
        MOVI r7, 0
        BEQ r11, r7, .drain
        MOV r1, r15
        MOVI r2, pmsg
        MOVI r3, 8
        MOVI r4, 0
        MOVI r5, 0x02000007
        CALL sendto
        ADDI r11, r11, -1
        JMP .fill
.drain:
        MOV r1, r13
        MOVI r2, iobuf
        MOVI r3, 64
        MOVI r4, 0
        MOVI r5, 0
        CALL recvfrom           ; #1: r6 = the recvfrom site's record
        LOAD r11, [r6+12]       ; r11 = LbPtr (policy state address)
        MOVI r8, save           ; snapshot the 20-byte policy state
        LOAD r7, [r11+0]
        STORE [r8+0], r7
        LOAD r7, [r11+4]
        STORE [r8+4], r7
        LOAD r7, [r11+8]
        STORE [r8+8], r7
        LOAD r7, [r11+12]
        STORE [r8+12], r7
        LOAD r7, [r11+16]
        STORE [r8+16], r7
        MOV r1, r13
        MOVI r2, iobuf
        MOVI r3, 64
        MOVI r4, 0
        MOVI r5, 0
        CALL recvfrom           ; #2: the state advances
        MOVI r8, save           ; roll the state back (the replay)
        LOAD r7, [r8+0]
        STORE [r11+0], r7
        LOAD r7, [r8+4]
        STORE [r11+4], r7
        LOAD r7, [r8+8]
        STORE [r11+8], r7
        LOAD r7, [r8+12]
        STORE [r11+12], r7
        LOAD r7, [r8+16]
        STORE [r11+16], r7
        MOV r1, r13
        MOVI r2, iobuf
        MOVI r3, 64
        MOVI r4, 0
        MOVI r5, 0
        CALL recvfrom           ; #3: traps with the stale state
        MOVI r1, donemsg
        CALL puts
        MOVI r0, 0
        RET
        .rodata
pmsg:   .asciz "payload"
donemsg: .asciz "replay survived\n"
        .bss
pairbuf: .space 8
iobuf:  .space 64
save:   .space 20
`

// runNetVictim builds src, spawns it on a networked kernel, applies the
// poke, and runs to completion (a kill is an outcome, not an error).
func (l *Lab) runNetVictim(name, src string, poke func(*kernel.Kernel, *kernel.Process, *binfmt.File) error) (*kernel.Process, error) {
	victim, _, err := buildAuth(src, name, installer.Options{Key: l.Key})
	if err != nil {
		return nil, fmt.Errorf("attack: build %s: %w", name, err)
	}
	k, err := l.newKernel(kernel.WithNetwork(anet.New()))
	if err != nil {
		return nil, err
	}
	p, err := k.Spawn(victim, name)
	if err != nil {
		return nil, err
	}
	if poke != nil {
		if err := poke(k, p, victim); err != nil {
			return nil, err
		}
	}
	if err := k.Run(p, 200_000_000); err != nil {
		return p, fmt.Errorf("attack: %s faulted: %w", name, err)
	}
	return p, nil
}

// sendtoRecordAddr locates the auth record of the victim's sendto site
// via its MOVI r6 preamble.
func sendtoRecordAddr(victim *binfmt.File) (uint32, error) {
	prog, err := cfg.Analyze(victim)
	if err != nil {
		return 0, err
	}
	text := victim.Section(binfmt.SecText)
	for _, s := range prog.SyscallSites() {
		if s.NumKnown && s.Num == sys.SysSendto {
			pre, err := isa.Decode(text.Data[s.Addr-isa.InstrSize-text.Addr:])
			if err != nil {
				return 0, err
			}
			return pre.Imm, nil
		}
	}
	return 0, fmt.Errorf("attack: victim has no sendto site")
}

// NetForgedSend plants a donor program's authenticated write record over
// the victim's sendto record: a compromised process trying to launder
// network traffic through a record MACed for a different call.
func (l *Lab) NetForgedSend() (Outcome, error) {
	rec, _, err := donorRecord(l.Key)
	if err != nil {
		return Outcome{}, err
	}
	poke := func(k *kernel.Kernel, p *kernel.Process, victim *binfmt.File) error {
		recAddr, err := sendtoRecordAddr(victim)
		if err != nil {
			return err
		}
		return p.Mem.KernelWrite(recAddr, rec)
	}
	p, err := l.runNetVictim("netvictim", netVictimSource, poke)
	if err != nil {
		return Outcome{}, err
	}
	return outcome("net: forged send record", "send network traffic under a donor's write record", p, "net victim done"), nil
}

// NetPortTamper rewrites the immediate of the installed MOVI that loads
// the victim's constant destination sockaddr, redirecting its traffic
// from port 7 to port 1.
func (l *Lab) NetPortTamper() (Outcome, error) {
	const (
		goodAddr = 0x02000000 | uint32(7)
		evilAddr = 0x02000000 | uint32(1)
	)
	poke := func(k *kernel.Kernel, p *kernel.Process, victim *binfmt.File) error {
		text := victim.Section(binfmt.SecText)
		for off := uint32(0); off+isa.InstrSize <= uint32(len(text.Data)); off += isa.InstrSize {
			in, err := isa.Decode(text.Data[off:])
			if err != nil {
				continue
			}
			if in.Op != isa.OpMOVI || in.Rd != isa.R5 || in.Imm != goodAddr {
				continue
			}
			in.Imm = evilAddr
			if err := p.Mem.KernelWrite(text.Addr+off, encode(nil, in)); err != nil {
				return err
			}
			return nil
		}
		return fmt.Errorf("attack: destination MOVI not found")
	}
	p, err := l.runNetVictim("netvictim", netVictimSource, poke)
	if err != nil {
		return Outcome{}, err
	}
	return outcome("net: destination tampering", "patch the constant sockaddr to redirect traffic", p, "net victim done"), nil
}

// NetRouteTamper rewrites one entry of a miniature LB client's replica
// route table: the MOVI immediate that steers slot 4's request to
// replica 1 (port 8001) is patched to replica 0's sockaddr, silently
// re-homing the key. The sharded fleet's defense is that the route is a
// policy-constrained immediate under the call MAC, so the misrouted
// send must die as a call-MAC mismatch, not reach the wrong replica.
func (l *Lab) NetRouteTamper() (Outcome, error) {
	goodAddr := 0x02000000 | uint32(8001)
	evilAddr := 0x02000000 | uint32(8000)
	poke := func(k *kernel.Kernel, p *kernel.Process, victim *binfmt.File) error {
		text := victim.Section(binfmt.SecText)
		for off := uint32(0); off+isa.InstrSize <= uint32(len(text.Data)); off += isa.InstrSize {
			in, err := isa.Decode(text.Data[off:])
			if err != nil {
				continue
			}
			if in.Op != isa.OpMOVI || in.Rd != isa.R5 || in.Imm != goodAddr {
				continue
			}
			in.Imm = evilAddr
			if err := p.Mem.KernelWrite(text.Addr+off, encode(nil, in)); err != nil {
				return err
			}
			return nil
		}
		return fmt.Errorf("attack: route-table MOVI not found")
	}
	p, err := l.runNetVictim("netroutes", netRouteSource, poke)
	if err != nil {
		return Outcome{}, err
	}
	return outcome("net: route-table tampering", "patch an LB route immediate to re-home a key slot", p, "routes done"), nil
}

// NetReplayCF runs the guest-side policy-state replay across a socket
// receive; no kernel-side poke is needed — the attack is ordinary guest
// code abusing its own writable memory.
func (l *Lab) NetReplayCF() (Outcome, error) {
	p, err := l.runNetVictim("netreplay", netReplaySource, nil)
	if err != nil {
		return Outcome{}, err
	}
	return outcome("net: CF-state replay", "roll back the recvfrom site's {lastBlock, MAC} state", p, "replay survived"), nil
}
