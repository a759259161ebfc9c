// net.go measures the virtual network: an echo+KV server and N
// load-generation clients exchanging verified traffic on the loopback
// network, swept across client counts, worker counts, and enforcement
// configurations. The table behind BENCH_net.json.
package bench

import (
	"fmt"

	"asc/internal/core"
	"asc/internal/kernel"
	anet "asc/internal/net"
	"asc/internal/sched"
	"asc/internal/workload"
)

// NetClients is the client-count sweep measured for BENCH_net.json.
var NetClients = []int{1, 2, 4, 8}

// NetWorkers is the scheduler-worker sweep for the enforced+cached
// configuration.
var NetWorkers = []int{1, 2, 4, 8}

// NetPoint is one (clients, workers) measurement of the enforced,
// cache-enabled fleet.
type NetPoint struct {
	Workers int `json:"workers"`
	// MakespanCycles is the modeled fleet completion time
	// (sched.Makespan over the deterministic per-process counts).
	MakespanCycles uint64  `json:"makespan_cycles"`
	Speedup        float64 `json:"speedup"`
	EfficiencyPct  float64 `json:"efficiency_pct"`
	// VerifiedPerMCycle is fleet-wide verified calls per million
	// makespan cycles.
	VerifiedPerMCycle float64 `json:"verified_per_mcycle"`
}

// NetRow is one client count's sweep.
type NetRow struct {
	Clients  int    `json:"clients"`
	Requests uint64 `json:"requests"` // requests served fleet-wide
	Bytes    uint64 `json:"bytes"`    // request payload bytes moved client→server
	// Fleet cycle totals (sum of per-process counts) under the three
	// enforcement configurations: plain binaries on a permissive
	// kernel, authenticated binaries enforced, and enforced with the
	// verification cache.
	CyclesOff         uint64     `json:"cycles_off"`
	CyclesOn          uint64     `json:"cycles_enforced"`
	CyclesCached      uint64     `json:"cycles_cached"`
	OverheadPct       float64    `json:"overhead_pct"`        // on vs off
	CachedOverheadPct float64    `json:"cached_overhead_pct"` // cached vs off
	Verified          uint64     `json:"verified_calls"`      // verified calls fleet-wide (enforced)
	Points            []NetPoint `json:"points"`
}

// NetData is the full network sweep.
type NetData struct {
	Iters int      `json:"iters"`
	Rows  []NetRow `json:"rows"`
	// Shard is the sharded-fleet arm: replicas × clients × workers,
	// plus the 10k-client scale cell as the final row.
	Shard []ShardRow `json:"shard"`
}

// ShardReplicas is the replica-count sweep of the sharded arm.
var ShardReplicas = []int{1, 2, 4}

// ShardClients is the LB-client-count sweep of the sharded arm.
var ShardClients = []int{4, 8}

// ShardIters is the per-client iteration count of the sweep cells.
const ShardIters = 2

// Shard10kClients is the client count of the scale cell: ten thousand
// LB clients against four event-loop replicas.
const Shard10kClients = 10000

// ShardRow is one (replicas, clients) cell of the sharded-fleet sweep:
// N poll-event-loop KV replicas, each owning a consistent-hash slice of
// the key space, driven by LB clients routing by MAC-pinned immediates.
type ShardRow struct {
	Replicas     int        `json:"replicas"`
	Clients      int        `json:"clients"`
	Iters        int        `json:"iters"`
	Requests     uint64     `json:"requests"`       // requests served fleet-wide
	CyclesCached uint64     `json:"cycles_cached"`  // fleet cycle total, enforced + verify cache
	Verified     uint64     `json:"verified_calls"` // verified calls fleet-wide
	Points       []NetPoint `json:"points"`
}

// netMode selects the enforcement configuration of one fleet run.
type netMode int

const (
	netOff    netMode = iota // plain binaries, permissive kernel
	netOn                    // authenticated, enforcing
	netCached                // authenticated, enforcing, verify cache
)

// runNetFleet drives one server + clients fleet to completion and
// returns the per-process cycle counts (server first) plus the
// fleet-wide verified-call total. Outputs are checked against the
// workload's closed-form expectations — a bench run that did not
// actually move the traffic is an error, not a fast result.
func runNetFleet(srv, cli *core.RunRequest, key []byte, clients, iters, workers int, mode netMode) ([]uint64, uint64, error) {
	cfg := core.Config{KernelOptions: []kernel.Option{kernel.WithNetwork(anet.New())}}
	switch mode {
	case netOff:
		cfg.Permissive = true
	case netCached:
		// Per-process cache scope, not fleet-shared: which client
		// publishes a shared site first depends on scheduling, and this
		// sweep's determinism contract (identical per-process cycles at
		// every worker count) cannot hold if adopt-vs-miss costs migrate
		// between processes. Fleet sharing is measured by the batch
		// sweep, which runs its fleet serially for exactly this reason.
		cfg.Key = key
		cfg.KernelOptions = append(cfg.KernelOptions,
			kernel.WithCacheMode(kernel.CachePerProcess),
			kernel.WithBatchVerify(BatchDepth))
	default:
		cfg.Key = key
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, 0, err
	}
	reqs := []core.RunRequest{*srv}
	for i := 0; i < clients; i++ {
		reqs = append(reqs, *cli)
	}
	res, err := sys.RunAll(reqs, workers)
	if err != nil {
		return nil, 0, err
	}
	cycles := make([]uint64, len(res))
	var verified uint64
	for i, r := range res {
		if r.Err != nil {
			return nil, 0, fmt.Errorf("bench: net %s: %w", reqs[i].Name, r.Err)
		}
		if r.Killed {
			return nil, 0, fmt.Errorf("bench: net %s killed: %s", reqs[i].Name, r.Reason)
		}
		if r.ExitCode != 0 {
			return nil, 0, fmt.Errorf("bench: net %s exit=%d", reqs[i].Name, r.ExitCode)
		}
		cycles[i] = r.Cycles
		verified += r.Verified
	}
	if got, want := res[0].Output, workload.NetServerOutput(clients, iters); got != want {
		return nil, 0, fmt.Errorf("bench: net server output %q, want %q", got, want)
	}
	for i := 1; i < len(res); i++ {
		if got, want := res[i].Output, workload.NetClientOutput(iters); got != want {
			return nil, 0, fmt.Errorf("bench: net client %d output %q, want %q", i, got, want)
		}
	}
	return cycles, verified, nil
}

// buildShardReqs builds the authenticated replica and LB-client
// binaries for one sharded cell and returns the fleet's run requests
// (replicas first) plus the consistent-hash route table.
func buildShardReqs(key []byte, replicas, clients, iters int) ([]core.RunRequest, []int, error) {
	routes := workload.ShardMap(replicas)
	slotsOf := make([]int, replicas)
	for _, r := range routes {
		slotsOf[r]++
	}
	var reqs []core.RunRequest
	for r := 0; r < replicas; r++ {
		name := fmt.Sprintf("netreplica%d", r)
		src := workload.NetReplicaSource(workload.NetShardPortBase+uint16(r), clients, workload.NetShardRounds(iters, slotsOf[r]))
		_, auth, err := buildPair(name, src, key)
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, core.RunRequest{Exe: auth, Name: name})
	}
	_, cliAuth, err := buildPair("netlbclient", workload.NetLBClientSource(iters, replicas, routes), key)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < clients; i++ {
		reqs = append(reqs, core.RunRequest{Exe: cliAuth, Name: "netlbclient"})
	}
	return reqs, routes, nil
}

// runShardFleet drives one sharded fleet (replicas first, then LB
// clients) to completion under enforcement with the per-process verify
// cache and returns per-process cycle counts plus the fleet-wide
// verified-call total. Every output is checked against the workload's
// closed forms.
func runShardFleet(reqs []core.RunRequest, key []byte, routes []int, replicas, clients, iters, workers int) ([]uint64, uint64, error) {
	slotsOf := make([]int, replicas)
	for _, r := range routes {
		slotsOf[r]++
	}
	cfg := core.Config{
		Key: key,
		KernelOptions: []kernel.Option{
			kernel.WithNetwork(anet.New()),
			kernel.WithCacheMode(kernel.CachePerProcess),
			kernel.WithBatchVerify(BatchDepth),
		},
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, 0, err
	}
	res, err := sys.RunAll(reqs, workers)
	if err != nil {
		return nil, 0, err
	}
	cycles := make([]uint64, len(res))
	var verified uint64
	for i, r := range res {
		if r.Err != nil {
			return nil, 0, fmt.Errorf("bench: shard %s: %w", reqs[i].Name, r.Err)
		}
		if r.Killed {
			return nil, 0, fmt.Errorf("bench: shard %s killed: %s", reqs[i].Name, r.Reason)
		}
		if r.ExitCode != 0 {
			return nil, 0, fmt.Errorf("bench: shard %s exit=%d", reqs[i].Name, r.ExitCode)
		}
		cycles[i] = r.Cycles
		verified += r.Verified
	}
	for r := 0; r < replicas; r++ {
		if got, want := res[r].Output, workload.NetShardServerOutput(clients, iters, slotsOf[r]); got != want {
			return nil, 0, fmt.Errorf("bench: shard replica %d output %q, want %q", r, got, want)
		}
	}
	for i := replicas; i < len(res); i++ {
		if got, want := res[i].Output, workload.NetShardClientOutput(iters); got != want {
			return nil, 0, fmt.Errorf("bench: shard client %d output %q, want %q", i-replicas, got, want)
		}
	}
	return cycles, verified, nil
}

// shardSweep runs the sharded arm: every (replicas, clients) cell
// re-runs the fleet at each worker count and cross-checks that the
// deterministic per-process cycle counts agree, then the 10k-client
// scale cell runs once (its per-worker points derive from the same
// deterministic counts via the makespan model).
func shardSweep(key []byte) ([]ShardRow, error) {
	var rows []ShardRow
	cell := func(replicas, clients, iters int, rerun bool) (ShardRow, error) {
		reqs, routes, err := buildShardReqs(key, replicas, clients, iters)
		if err != nil {
			return ShardRow{}, err
		}
		row := ShardRow{
			Replicas: replicas,
			Clients:  clients,
			Iters:    iters,
			Requests: uint64(clients) * uint64(iters) * 2 * workload.NetShardSlots,
		}
		var ref []uint64
		var refVer, serial uint64
		for _, w := range NetWorkers {
			var cyc []uint64
			var ver uint64
			if ref == nil || rerun {
				cyc, ver, err = runShardFleet(reqs, key, routes, replicas, clients, iters, w)
				if err != nil {
					return ShardRow{}, err
				}
			} else {
				cyc, ver = ref, refVer
			}
			if ref == nil {
				ref, refVer = cyc, ver
				row.CyclesCached = sum(cyc)
				row.Verified = ver
				serial = sched.Makespan(cyc, 1)
			} else {
				for i := range cyc {
					if cyc[i] != ref[i] {
						return ShardRow{}, fmt.Errorf("bench: shard r=%d c=%d w=%d: proc %d cycles %d != %d",
							replicas, clients, w, i, cyc[i], ref[i])
					}
				}
			}
			mk := sched.Makespan(ref, w)
			speedup := float64(serial) / float64(mk)
			row.Points = append(row.Points, NetPoint{
				Workers:           w,
				MakespanCycles:    mk,
				Speedup:           speedup,
				EfficiencyPct:     100 * speedup / float64(w),
				VerifiedPerMCycle: 1e6 * float64(refVer) / float64(mk),
			})
		}
		return row, nil
	}
	for _, replicas := range ShardReplicas {
		for _, clients := range ShardClients {
			row, err := cell(replicas, clients, ShardIters, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	// The scale cell: 10k clients, one real run (worker-count
	// determinism is cross-checked by the sweep cells above).
	row, err := cell(4, Shard10kClients, 1, false)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

// Net runs the client-count × worker-count × enforcement sweep. All
// reported figures derive from deterministic per-process cycle counts
// (the workload's outputs are order-independent aggregates), so the
// resulting JSON is byte-stable run to run; the per-worker runs
// cross-check that determinism on every sweep.
func Net(key []byte, iters int) (*NetData, error) {
	if iters < 1 {
		iters = 4
	}
	out := &NetData{Iters: iters}
	for _, clients := range NetClients {
		srvName := fmt.Sprintf("netserver%d", clients)
		srvOrig, srvAuth, err := buildPair(srvName, workload.NetServerSource(clients), key)
		if err != nil {
			return nil, err
		}
		cliOrig, cliAuth, err := buildPair("netclient", workload.NetClientSource(iters), key)
		if err != nil {
			return nil, err
		}
		row := NetRow{
			Clients:  clients,
			Requests: uint64(clients) * uint64(iters) * workload.NetRequestsPerIter,
			Bytes:    uint64(clients) * uint64(iters) * workload.NetBytesPerIter,
		}

		srvOff := core.RunRequest{Exe: srvOrig, Name: "netserver"}
		cliOff := core.RunRequest{Exe: cliOrig, Name: "netclient"}
		cyc, _, err := runNetFleet(&srvOff, &cliOff, key, clients, iters, 4, netOff)
		if err != nil {
			return nil, err
		}
		row.CyclesOff = sum(cyc)

		srvReq := core.RunRequest{Exe: srvAuth, Name: "netserver"}
		cliReq := core.RunRequest{Exe: cliAuth, Name: "netclient"}
		cyc, verified, err := runNetFleet(&srvReq, &cliReq, key, clients, iters, 4, netOn)
		if err != nil {
			return nil, err
		}
		row.CyclesOn = sum(cyc)
		row.Verified = verified

		// The enforced+cached configuration is the worker sweep: every
		// worker count really runs the fleet, and the deterministic
		// per-process counts must agree across all of them.
		var ref []uint64
		var serial uint64
		for _, w := range NetWorkers {
			cycC, verC, err := runNetFleet(&srvReq, &cliReq, key, clients, iters, w, netCached)
			if err != nil {
				return nil, err
			}
			if ref == nil {
				ref = cycC
				row.CyclesCached = sum(cycC)
				serial = sched.Makespan(cycC, 1)
			} else {
				for i := range cycC {
					if cycC[i] != ref[i] {
						return nil, fmt.Errorf("bench: net clients=%d w=%d: proc %d cycles %d != %d",
							clients, w, i, cycC[i], ref[i])
					}
				}
			}
			mk := sched.Makespan(cycC, w)
			speedup := float64(serial) / float64(mk)
			row.Points = append(row.Points, NetPoint{
				Workers:           w,
				MakespanCycles:    mk,
				Speedup:           speedup,
				EfficiencyPct:     100 * speedup / float64(w),
				VerifiedPerMCycle: 1e6 * float64(verC) / float64(mk),
			})
		}
		row.OverheadPct = pct(row.CyclesOff, row.CyclesOn)
		row.CachedOverheadPct = pct(row.CyclesOff, row.CyclesCached)
		out.Rows = append(out.Rows, row)
	}
	shard, err := shardSweep(key)
	if err != nil {
		return nil, err
	}
	out.Shard = shard
	return out, nil
}

func sum(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// Render prints the network sweep.
func (t *NetData) Render() string {
	header := []string{"Clients", "Requests", "Bytes", "Off cycles", "Enforced (+%)", "Cached (+%)"}
	for _, w := range NetWorkers {
		header = append(header, fmt.Sprintf("w=%d speedup", w))
	}
	var rows [][]string
	for _, r := range t.Rows {
		row := []string{
			fmt.Sprint(r.Clients),
			fmt.Sprint(r.Requests),
			fmt.Sprint(r.Bytes),
			fmt.Sprint(r.CyclesOff),
			fmt.Sprintf("%d (+%.1f%%)", r.CyclesOn, r.OverheadPct),
			fmt.Sprintf("%d (+%.1f%%)", r.CyclesCached, r.CachedOverheadPct),
		}
		for _, p := range r.Points {
			row = append(row, fmt.Sprintf("%.2fx", p.Speedup))
		}
		rows = append(rows, row)
	}
	title := fmt.Sprintf("Network fleet: echo+KV server + N load-gen clients, %d iterations/client", t.Iters)
	out := renderTable(title, header, rows)
	if len(t.Shard) == 0 {
		return out
	}
	sheader := []string{"Replicas", "Clients", "Requests", "Cached cycles", "Verified"}
	for _, w := range NetWorkers {
		sheader = append(sheader, fmt.Sprintf("w=%d speedup", w))
	}
	var srows [][]string
	for _, r := range t.Shard {
		row := []string{
			fmt.Sprint(r.Replicas),
			fmt.Sprint(r.Clients),
			fmt.Sprint(r.Requests),
			fmt.Sprint(r.CyclesCached),
			fmt.Sprint(r.Verified),
		}
		for _, p := range r.Points {
			row = append(row, fmt.Sprintf("%.2fx (%.0f%%)", p.Speedup, p.EfficiencyPct))
		}
		srows = append(srows, row)
	}
	return out + "\n" + renderTable("Sharded fleet: poll event-loop KV replicas + consistent-hash LB clients", sheader, srows)
}
