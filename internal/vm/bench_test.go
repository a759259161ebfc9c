package vm

import (
	"testing"

	"asc/internal/isa"
)

// BenchmarkInterpreter measures raw interpreter speed (simulated
// instructions per second drive every macro result) on two loops: "alu"
// is a tight arithmetic loop that touches no memory, "loadstore" loads
// and stores a data word and pushes and pops a stack word every
// iteration, so each iteration goes through the load/store path on one
// data page and one stack page.
func BenchmarkInterpreter(b *testing.B) {
	const text, data = 0x1000, 0x2000
	loops := []struct {
		name string
		body []isa.Instr
	}{
		{"alu", []isa.Instr{
			{Op: isa.OpADD, Rd: isa.R3, Rs: isa.R3, Rt: isa.R1},
		}},
		{"loadstore", []isa.Instr{
			{Op: isa.OpLOAD, Rd: isa.R3, Rs: isa.R4},
			{Op: isa.OpADDI, Rd: isa.R3, Rs: isa.R3, Imm: 1},
			{Op: isa.OpSTORE, Rd: isa.R4, Rs: isa.R3},
			{Op: isa.OpPUSH, Rs: isa.R3},
			{Op: isa.OpPOP, Rd: isa.R5},
		}},
	}
	for _, l := range loops {
		b.Run(l.name, func(b *testing.B) {
			mem := NewMemory(text, 64<<10)
			ins := []isa.Instr{
				{Op: isa.OpMOVI, Rd: isa.R1, Imm: 100000},
				{Op: isa.OpMOVI, Rd: isa.R2, Imm: 0},
				{Op: isa.OpMOVI, Rd: isa.R4, Imm: data},
			}
			loop := text + uint32(len(ins))*isa.InstrSize
			ins = append(ins, l.body...)
			ins = append(ins,
				isa.Instr{Op: isa.OpADDI, Rd: isa.R1, Rs: isa.R1, Imm: 0xffffffff},
				isa.Instr{Op: isa.OpBNE, Rs: isa.R1, Rt: isa.R2, Imm: loop},
				isa.Instr{Op: isa.OpHALT},
			)
			code := make([]byte, len(ins)*isa.InstrSize)
			for i, in := range ins {
				in.Encode(code[i*isa.InstrSize:])
			}
			if err := mem.KernelWrite(text, code); err != nil {
				b.Fatal(err)
			}
			mem.Map(Segment{Name: "text", Start: text, End: text + uint32(len(code)), Perms: PermRead | PermExec})
			mem.Map(Segment{Name: "data", Start: data, End: data + PageSize, Perms: PermRead | PermWrite})
			mem.Map(Segment{Name: "stack", Start: mem.Limit() - PageSize, End: mem.Limit(), Perms: PermRead | PermWrite})
			if !mem.AttachText(DecodeText(text, code)) {
				b.Fatal("text not attached")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := New(mem, nil)
				c.PC = text
				c.Regs[isa.SP] = mem.Limit()
				if err := c.Run(10_000_000); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(c.Cycles), "cycles/op")
				}
			}
		})
	}
}
