// registry.go names every table ascbench regenerates and, for the
// sweeps pinned by a committed BENCH_*.json file, that file.
package bench

import "asc/internal/workload"

// Table is one regenerated evaluation table.
type Table interface{ Render() string }

// Entry is one named table of the registry. Artifact names the committed
// file that pins the table's JSON form (its data type's json tags), or is
// empty for a table printed only.
type Entry struct {
	Name     string
	Artifact string
	// Build regenerates the table; scale divides Table 6's iteration
	// counts and is ignored elsewhere.
	Build func(scale int) (Table, error)
}

// Registry lists every table in the order `ascbench -table all` prints
// them. The repository's artifact test rebuilds each entry with an
// Artifact and compares it byte for byte with the committed file.
var Registry = []Entry{
	{"1", "", func(int) (Table, error) { return Table1() }},
	{"2", "", func(int) (Table, error) { return Table2() }},
	{"3", "", func(int) (Table, error) { return Table3() }},
	{"4", "BENCH_kernel.json", func(int) (Table, error) { return Table4(DefaultKey) }},
	{"6", "", func(scale int) (Table, error) { return Table6(DefaultKey, scale) }},
	{"andrew", "", func(int) (Table, error) { return Andrew(DefaultKey, workload.AndrewConfig{}) }},
	{"compare", "", func(int) (Table, error) { return EnforcementComparison(DefaultKey) }},
	{"smp", "BENCH_smp.json", func(int) (Table, error) { return SMP(DefaultKey, 8, 200) }},
	{"ckpt", "BENCH_ckpt.json", func(int) (Table, error) { return Ckpt(DefaultKey, 400) }},
	{"net", "BENCH_net.json", func(int) (Table, error) { return Net(DefaultKey, 4) }},
	{"batch", "BENCH_batch.json", func(int) (Table, error) { return Batch(DefaultKey) }},
	{"cluster", "BENCH_cluster.json", func(int) (Table, error) { return Cluster(DefaultKey, 400) }},
	{"mem", "BENCH_mem.json", func(int) (Table, error) { return Mem(DefaultKey) }},
}
