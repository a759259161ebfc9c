// artifacts_test.go pins the committed BENCH_*.json artifacts: every
// bench.Registry table that has one, plus the seed-1 fault matrix, is
// rebuilt in-process and compared byte for byte with the committed file.
// The figures are deterministic cycle counts, so any difference is a
// real change to the model or the system; a deliberate one is committed
// by rerunning with -update (make artifacts) and explained.
package asc_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"

	"asc/internal/bench"
	"asc/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the committed BENCH_*.json artifacts from this build")

// artifactChecks are the gates each artifact's data must pass besides
// matching its committed bytes.
var artifactChecks = map[string]func(*testing.T, bench.Table){
	"4":       checkFastPath,
	"net":     checkNetSweep,
	"cluster": checkTakeover,
}

// TestArtifacts rebuilds every artifact and compares it with the
// committed file; on a mismatch it names the file and the first JSON
// path that differs.
func TestArtifacts(t *testing.T) {
	for _, e := range bench.Registry {
		if e.Artifact == "" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			data, err := e.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			golden(t, e.Artifact, data)
			if check := artifactChecks[e.Name]; check != nil {
				check(t, data)
			}
		})
	}
	t.Run("fault", func(t *testing.T) {
		m, err := fault.Run(fault.Config{Seed: 1, Trials: 3, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m.Failures() {
			t.Errorf("contract violation: %s", f)
		}
		golden(t, "BENCH_fault.json", m)
	})
}

// golden compares v's indented JSON form with the committed file, or
// rewrites the file under -update.
func golden(t *testing.T, file string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: this build differs from the committed file at %s", file, firstDiff(got, want))
	}
}

// firstDiff names the first path, in document order with object keys
// sorted, at which two JSON documents differ.
func firstDiff(got, want []byte) string {
	var g, w any
	if decode(got, &g) != nil || decode(want, &w) != nil {
		return "(not valid JSON)"
	}
	if d, ok := diffPath("", g, w); ok {
		return d
	}
	return "(equal values in different bytes)"
}

func decode(b []byte, v *any) error {
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	return d.Decode(v)
}

func diffPath(path string, g, w any) (string, bool) {
	switch w := w.(type) {
	case map[string]any:
		gm, ok := g.(map[string]any)
		if !ok {
			break
		}
		var keys []string
		for k := range w {
			keys = append(keys, k)
		}
		for k := range gm {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d, ok := diffPath(join(path, k), gm[k], w[k]); ok {
				return d, true
			}
		}
		return "", false
	case []any:
		ga, ok := g.([]any)
		if !ok {
			break
		}
		for i := range min(len(ga), len(w)) {
			if d, ok := diffPath(fmt.Sprintf("%s[%d]", path, i), ga[i], w[i]); ok {
				return d, true
			}
		}
		if len(ga) != len(w) {
			return fmt.Sprintf("%s (%d elements, committed %d)", path, len(ga), len(w)), true
		}
		return "", false
	default:
		if g == w {
			return "", false
		}
	}
	return fmt.Sprintf("%s (%v, committed %v)", path, g, w), true
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// checkFastPath is the fast-path regression gate: the cached getpid
// costs at most 1.6x the plain (unverified) call.
func checkFastPath(t *testing.T, data bench.Table) {
	t4 := data.(*bench.Table4Data)
	i := slices.IndexFunc(t4.Rows, func(r bench.Table4Row) bool { return r.Call == "getpid" })
	if i < 0 {
		t.Fatal("no getpid row in Table 4")
	}
	if r := t4.Rows[i]; r.CachedCycles/r.OrigCycles > 1.6 {
		t.Errorf("cached getpid %.0f cycles is %.2fx plain %.0f, gate is 1.6x",
			r.CachedCycles, r.CachedCycles/r.OrigCycles, r.OrigCycles)
	}
}

// checkNetSweep checks the network sweep's structure — every client
// count present, enforcement dearer than permissive, the cache cheaper
// than uncached enforcement, verified traffic on every row, fleet work
// growing with the client count — and the event-loop scaling gate: the
// 4-replica, 8-client sharded fleet reaches at least 70% parallel
// efficiency at 4 workers, so replicas are not serialized behind a
// shared wait.
func checkNetSweep(t *testing.T, data bench.Table) {
	net := data.(*bench.NetData)
	if len(net.Rows) != len(bench.NetClients) {
		t.Fatalf("rows = %d, want %d", len(net.Rows), len(bench.NetClients))
	}
	for i, r := range net.Rows {
		if r.Clients != bench.NetClients[i] {
			t.Errorf("row %d clients = %d, want %d", i, r.Clients, bench.NetClients[i])
		}
		if r.CyclesOn <= r.CyclesOff {
			t.Errorf("clients=%d: enforcement not more expensive: on=%d off=%d", r.Clients, r.CyclesOn, r.CyclesOff)
		}
		if r.CyclesCached >= r.CyclesOn {
			t.Errorf("clients=%d: cache did not help: cached=%d on=%d", r.Clients, r.CyclesCached, r.CyclesOn)
		}
		if r.Verified == 0 {
			t.Errorf("clients=%d: no verified calls", r.Clients)
		}
		if len(r.Points) != len(bench.NetWorkers) {
			t.Errorf("clients=%d: points = %d, want %d", r.Clients, len(r.Points), len(bench.NetWorkers))
		}
		if i > 0 && r.CyclesOn <= net.Rows[i-1].CyclesOn {
			t.Errorf("no scaling: clients=%d cycles %d <= clients=%d cycles %d",
				r.Clients, r.CyclesOn, net.Rows[i-1].Clients, net.Rows[i-1].CyclesOn)
		}
	}
	for _, r := range net.Shard {
		if r.Replicas != 4 || r.Clients != 8 {
			continue
		}
		for _, p := range r.Points {
			if p.Workers == 4 {
				if p.EfficiencyPct < 70 {
					t.Errorf("sharded fleet 4-worker efficiency %.1f%% (speedup %.2fx), gate is 70%%", p.EfficiencyPct, p.Speedup)
				}
				return
			}
		}
	}
	t.Error("no 4-replica, 8-client, 4-worker cell in the sharded arm")
}

// checkTakeover is the durable-control-plane recovery gate: a director
// crash mid-migration at heartbeat cadence 1, with a warm standby,
// cold-starts no process.
func checkTakeover(t *testing.T, data bench.Table) {
	c := data.(*bench.ClusterData)
	if len(c.Takeover) == 0 || c.Takeover[0].HeartbeatEvery != 1 {
		t.Fatal("no heartbeat-1 cell in the takeover arm")
	}
	if p := c.Takeover[0]; p.ColdStarts != 0 {
		t.Errorf("%d cold starts across a director takeover, want 0", p.ColdStarts)
	}
}
