// ascbench regenerates the paper's evaluation tables.
//
// Usage: ascbench [-table 1|2|3|4|6|andrew|compare|smp|ckpt|net|batch|cluster|mem|all]
// [-scale N] [-cpuprofile FILE] [-memprofile FILE]
//
// The tables are the entries of bench.Registry. The committed
// BENCH_*.json artifacts are their JSON forms, rewritten by
// `go test . -run TestArtifacts -update` (make artifacts), which also
// holds the fast-path, fleet-efficiency and takeover gates.
// -cpuprofile/-memprofile write pprof profiles of the benchmark run
// itself, so fast-path work is profiled instead of guessed at.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"asc/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, 3, 4, 6, andrew, compare, smp, ckpt, net, batch, cluster, mem, all")
	scale := flag.Int("scale", 1, "divide macro-benchmark iteration counts by N (faster, less precise)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to FILE")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the benchmark run to FILE")
	flag.Parse()

	var names []string
	var run []bench.Entry
	for _, e := range bench.Registry {
		names = append(names, e.Name)
		if *table == "all" || *table == e.Name {
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "ascbench: unknown table %q (known: %s, all)\n", *table, strings.Join(names, ", "))
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ascbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ascbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ascbench: memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ascbench: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	for _, e := range run {
		data, err := e.Build(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ascbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println(data.Render())
	}
}
