package main

import (
	"slices"
	"testing"
	"time"

	"asc/internal/bench"
	"asc/internal/workload"
)

// runSource builds one source with the benchmark's toolchain path and
// runs it as a benchmark job on a fresh System, enforced or permissive.
func runSource(t *testing.T, name, text string, enforced bool) counts {
	t.Helper()
	progs, _, err := buildCorpus([]source{{name: name, text: text}}, bench.DefaultKey)
	if err != nil {
		t.Fatal(err)
	}
	s, err := boot(bench.DefaultKey, !enforced, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := execJob(s.Kernel, progs[0], enforced, jobSpec{}, 0, nil)
	if r.err != nil || r.killed {
		t.Fatalf("%s: killed=%v err=%v", name, r.killed, r.err)
	}
	return r.c
}

// TestTable4Anchor: a syscall-workload getpid loop reproduces the
// authenticated getpid cycles per call of bench.Table4, by the same
// two-length difference.
func TestTable4Anchor(t *testing.T) {
	tab, err := bench.Table4(bench.DefaultKey)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(tab.Rows, func(r bench.Table4Row) bool { return r.Call == "getpid" })
	if i < 0 {
		t.Fatal("Table 4 has no getpid row")
	}
	short := runSource(t, "loop-getpid", loopSource("getpid", 100), true)
	long := runSource(t, "loop-getpid", loopSource("getpid", 1100), true)
	perIter := float64(long.Cycles-short.Cycles) / 1000
	if want := tab.Rows[i].AuthCycles + tab.LoopCost; perIter != want {
		t.Fatalf("getpid loop: %.2f cycles per iteration, Table 4 auth+loop %.2f", perIter, want)
	}
}

// TestTable6Anchor: every macro program at the paper's iteration count
// reproduces bench.Table6's enforced and original cycles, so the
// benchmark's modeled overhead is the table's.
func TestTable6Anchor(t *testing.T) {
	tab, err := bench.Table6(bench.DefaultKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		spec, ok := workload.PerfSpecByName(row.Program)
		if !ok {
			t.Fatalf("unknown program %s", row.Program)
		}
		src := spec.Source(spec.Iters)
		if got := runSource(t, spec.Name, src, true).Cycles; got != row.AuthCycles {
			t.Errorf("%s enforced: %d cycles, Table 6 %d", spec.Name, got, row.AuthCycles)
		}
		if got := runSource(t, spec.Name, src, false).Cycles; got != row.OrigCycles {
			t.Errorf("%s baseline: %d cycles, Table 6 %d", spec.Name, got, row.OrigCycles)
		}
	}
}

// TestExactCounts: two runs with the same seed give identical per-job
// counts (on fleet, the totals that do not depend on the cache race),
// every job passes the output oracle, and a traced epoch counts exactly
// what an untraced one does.
func TestExactCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var refs [2][]counts
			for i := range refs {
				b, err := newRunner(w, 42)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.warmUp(); err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					for _, pr := range b.progs {
						pr.decodeText()
					}
					var trs []*tracer
					for range w.clients {
						trs = append(trs, newTracer(time.Now(), 0))
					}
					if _, err := b.runEpoch(trs); err != nil {
						t.Fatal(err)
					}
				}
				if b.failures != 0 {
					t.Fatalf("%d of %d jobs failed: %v", b.failures, b.attempts, b.firstErr)
				}
				refs[i] = b.ref
			}
			if !slices.Equal(refs[0], refs[1]) {
				t.Fatalf("same seed, different counts:\n%+v\n%+v", refs[0], refs[1])
			}
		})
	}
}
