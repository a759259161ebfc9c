// ascfault runs the deterministic fault-injection campaign against the
// simulated platform: N seeded trials of every fault scenario against
// every eligible victim workload, each executed under Kill and Deny
// enforcement. Kernel-layer scenarios also run across four kernel arms
// (no cache, per-process cache, fleet-shared cache with group-commit
// batching, and paged memory); the checkpoint, cluster and durable
// control-plane scenarios tamper with sealed checkpoints during
// supervised warm restarts, attack a 3-node fleet (node crashes, torn
// migrations, envelope replay and spoof, heartbeat delays), and attack
// the director's WAL, persistent store and takeover. It prints an
// aligned result matrix, optionally writes the byte-stable JSON form
// (same seed → identical bytes), and exits nonzero if any trial
// violated the contract.
//
// Usage: ascfault [-seed N] [-trials N] [-classes a,b,...] [-cycles N]
//
//	[-workers N] [-json file] [-q]
//
// -classes selects any scenarios by name, on any layer. -workers runs
// (scenario, victim) cells concurrently; the matrix is byte-identical
// at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"asc/internal/fault"
)

func main() {
	seed := flag.Uint64("seed", 1, "campaign seed (same seed → identical JSON)")
	trials := flag.Int("trials", 4, "trials per (scenario, victim) pair")
	classesFlag := flag.String("classes", "", "comma-separated fault scenarios (default: all)")
	cycles := flag.Uint64("cycles", 0, "per-run cycle budget (default 4,000,000)")
	workers := flag.Int("workers", 1, "run (scenario, victim) cells on N workers (matrix is identical at any width)")
	jsonPath := flag.String("json", "", "write the JSON matrix to this file")
	quiet := flag.Bool("q", false, "suppress the result table")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ascfault [-seed N] [-trials N] [-classes a,b,...] [-cycles N] [-workers N] [-json file] [-q]")
		os.Exit(2)
	}

	cfg := fault.Config{Seed: *seed, Trials: *trials, MaxCycles: *cycles, Workers: *workers}
	if *classesFlag != "" {
		known := map[fault.Class]bool{}
		var names []string
		for _, sc := range fault.Scenarios() {
			known[sc.Name] = true
			names = append(names, string(sc.Name))
		}
		for _, s := range strings.Split(*classesFlag, ",") {
			c := fault.Class(strings.TrimSpace(s))
			if !known[c] {
				fmt.Fprintf(os.Stderr, "ascfault: unknown fault scenario %q (known: %s)\n", c, strings.Join(names, ", "))
				os.Exit(2)
			}
			cfg.Classes = append(cfg.Classes, c)
		}
	}

	m, err := fault.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascfault:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Print(m.Render())
	}
	if *jsonPath != "" {
		b, err := m.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ascfault:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ascfault:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ascfault: wrote %s\n", *jsonPath)
	}
	if fails := m.Failures(); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "ascfault: FAIL:", f)
		}
		fmt.Fprintf(os.Stderr, "ascfault: %d contract violations\n", len(fails))
		os.Exit(1)
	}
}
