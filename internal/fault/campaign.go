// campaign.go drives the deterministic fault-injection campaign: N
// seeded trials of every registry scenario against every eligible
// victim workload, each trial executed under Kill and Deny enforcement
// and, on the kernel layer, across four kernel arms (no cache,
// per-process cache, fleet-shared cache with group-commit batching, and
// demand-paged memory with the authenticated swap device). The driver
// checks the platform's contract — every fault inside the MAC-protected
// surface is detected with an expected reason, faults outside it are
// survived cleanly, and outcomes are identical across arms and
// enforcement modes — and aggregates the results into a JSON-stable
// matrix.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"

	"asc/internal/binfmt"
	"asc/internal/core"
	"asc/internal/kernel"
	anet "asc/internal/net"
	"asc/internal/sched"
	"asc/internal/vfs"
	"asc/internal/vm"
	"asc/internal/workload"
)

// Config parameterizes a campaign.
type Config struct {
	Seed   uint64
	Trials int
	// Key is the MAC key; defaults to a fixed campaign key.
	Key []byte
	// Classes selects scenarios by name; nil runs the whole registry.
	Classes []Class
	// Victims defaults to workload.FaultVictims().
	Victims []workload.FaultVictim
	// MaxCycles bounds each run; Deny-mode processes whose control-flow
	// chain is unrecoverable run away until this budget expires.
	// Defaults to 4,000,000.
	MaxCycles uint64
	// Workers runs (scenario, victim) cells on a sched.Pool of this
	// width. Zero or one means serial. Every run builds its own kernels
	// and fault injector (injectors are stateful and not shared), and
	// subseeds depend only on (seed, victim, trial), so the matrix is
	// byte-identical at any worker count.
	Workers int
}

// DefaultKey is the campaign MAC key used when Config.Key is nil.
var DefaultKey = []byte("fault-campaign-k")

// Outcome is what one run of one trial reports.
type Outcome struct {
	Fired bool
	// Reasons counts the run's detections by reason: the first
	// violation on the kernel layer, every rejection above it.
	Reasons map[string]int
	// Result is the victim process's fate on the kernel layer: clean |
	// killed | denied | runaway | exit:N. It is the only field the
	// enforcement mode may change.
	Result string
	// Recovery is the supervisor's or fleet's tally above the kernel.
	Recovery Recovery
	// Errs are breaches the layer's own checks found.
	Errs []string
}

func (o *Outcome) fail(format string, args ...any) {
	o.Errs = append(o.Errs, fmt.Sprintf(format, args...))
}

func (o *Outcome) reject(reason string, n int) {
	if o.Reasons == nil {
		o.Reasons = map[string]int{}
	}
	o.Reasons[reason] += n
}

// Recovery counts how the layers above the kernel brought the workload
// back: trials whose every process finished with the reference result,
// and the restarts, failovers, migrations and replayed cycles it took.
type Recovery struct {
	Recovered    int    `json:"recovered"`
	WarmRestarts int    `json:"warm_restarts"`
	ColdStarts   int    `json:"cold_starts"`
	Failovers    int    `json:"failovers"`
	Migrations   int    `json:"migrations"`
	ReplayCycles uint64 `json:"replay_cycles"`
}

func (r *Recovery) add(o Recovery) {
	r.Recovered += o.Recovered
	r.WarmRestarts += o.WarmRestarts
	r.ColdStarts += o.ColdStarts
	r.Failovers += o.Failovers
	r.Migrations += o.Migrations
	r.ReplayCycles += o.ReplayCycles
}

// Cell aggregates the trials of one (scenario, victim) pair, counted on
// the canonical run (Kill, first arm); every other run of a trial must
// match it, which the driver checks per trial.
type Cell struct {
	Class    string         `json:"class"`
	Layer    string         `json:"layer"`
	Victim   string         `json:"victim"`
	Trials   int            `json:"trials"`
	Fired    int            `json:"fired"`
	Detected int            `json:"detected"` // trials with a detection or rejection
	Clean    int            `json:"clean"`
	Runaways int            `json:"runaways"` // deny-mode unrecoverable chains
	Reasons  map[string]int `json:"reasons,omitempty"`
	Recovery *Recovery      `json:"recovery,omitempty"` // layers above the kernel
	Failures []string       `json:"failures,omitempty"`
}

// RestartCell records the supervised-restart demonstration for one
// victim: a transient record flip kills the first attempt, and the
// supervisor's restart recovers the workload.
type RestartCell struct {
	Victim    string         `json:"victim"`
	Class     string         `json:"class"`
	Attempts  int            `json:"attempts"`
	Restarts  int            `json:"restarts"`
	GaveUp    bool           `json:"gave_up"`
	Recovered bool           `json:"recovered"`
	Causes    map[string]int `json:"causes,omitempty"`
	Failure   string         `json:"failure,omitempty"`
}

// Matrix is the campaign result; its JSON encoding is byte-stable for a
// given Config. Cells are in registry order, then victim order.
type Matrix struct {
	Seed      uint64        `json:"seed"`
	Trials    int           `json:"trials"`
	MaxCycles uint64        `json:"max_cycles"`
	Cells     []Cell        `json:"cells"`
	Restarts  []RestartCell `json:"restarts"`
}

// trial is one run of one trial: a scenario against a victim under one
// enforcement mode and kernel arm.
type trial struct {
	cfg     Config
	class   Class
	exp     Expect
	v       *workload.FaultVictim
	exe     *binfmt.File
	prep    *prep // this victim's, for layers with a Prepare
	donor   *prep // the next eligible victim's
	subseed uint64
	mode    kernel.Enforcement
	arm     int
}

// pick is the first draw of the trial's subseed.
func (t *trial) pick() uint64 {
	s := t.subseed
	return splitmix(&s)
}

// Run executes the campaign.
func Run(cfg Config) (*Matrix, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 4
	}
	if cfg.Key == nil {
		cfg.Key = DefaultKey
	}
	if cfg.Victims == nil {
		cfg.Victims = workload.FaultVictims()
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 4_000_000
	}
	scs, err := selectScenarios(cfg.Classes)
	if err != nil {
		return nil, err
	}

	// Victim binaries are built once, serially, and shared read-only by
	// every cell; so are the per-(layer, victim) preparations.
	exes := make([]*binfmt.File, len(cfg.Victims))
	for vi := range cfg.Victims {
		exe, err := cfg.Victims[vi].Build(cfg.Key)
		if err != nil {
			return nil, fmt.Errorf("fault: build victim %s: %w", cfg.Victims[vi].Name, err)
		}
		exes[vi] = exe
	}
	preps := map[string][]*prep{}
	for _, sc := range scs {
		if sc.Prepare == nil || preps[sc.Layer] != nil {
			continue
		}
		ps := make([]*prep, len(cfg.Victims))
		for vi := range cfg.Victims {
			if sc.eligible(&cfg.Victims[vi]) {
				if ps[vi], err = sc.Prepare(cfg, &cfg.Victims[vi], exes[vi]); err != nil {
					return nil, err
				}
			}
		}
		preps[sc.Layer] = ps
	}

	// One task per (scenario, eligible victim) cell, then one restart
	// demonstration per victim. Each task owns its kernels, stores, and
	// fault injectors, so tasks run concurrently when cfg.Workers > 1.
	type task struct {
		sc *Scenario
		vi int
	}
	var tasks []task
	for i := range scs {
		for vi := range cfg.Victims {
			if scs[i].eligible(&cfg.Victims[vi]) {
				tasks = append(tasks, task{&scs[i], vi})
			}
		}
	}
	m := &Matrix{Seed: cfg.Seed, Trials: cfg.Trials, MaxCycles: cfg.MaxCycles,
		Cells: make([]Cell, len(tasks)), Restarts: make([]RestartCell, len(cfg.Victims))}
	errs := make([]error, len(tasks)+len(cfg.Victims))
	sched.Pool{Workers: max(cfg.Workers, 1)}.Do(len(errs), func(i int) {
		if i >= len(tasks) {
			vi := i - len(tasks)
			m.Restarts[vi], errs[i] = runRestart(cfg, &cfg.Victims[vi], exes[vi], uint64(vi))
			return
		}
		tk := tasks[i]
		m.Cells[i], errs[i] = runCell(cfg, tk.sc, tk.vi, exes[tk.vi], preps[tk.sc.Layer])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// runRestart runs one victim under the restart supervisor with a
// transient record flip: the fault fires once, the killed attempt is
// restarted, and the fresh process (the flip is spent) runs clean.
func runRestart(cfg Config, v *workload.FaultVictim, exe *binfmt.File, vi uint64) (RestartCell, error) {
	s := cfg.Seed
	_ = splitmix(&s)
	subseed := s ^ vi<<40 ^ 1<<63 // distinct from every trial subseed
	eng := NewEngine(FlipRecord, subseed)
	kopts := []kernel.Option{kernel.WithInjector(eng)}
	if v.Net {
		kopts = append(kopts, kernel.WithNetwork(anet.New()))
	}
	sys, err := core.NewSystem(core.Config{
		Key:           cfg.Key,
		KernelOptions: kopts,
	})
	if err != nil {
		return RestartCell{}, err
	}
	stats, err := sys.Supervise(exe, v.Name, v.Stdin, core.SuperviseConfig{
		MaxRestarts: 3,
		BackoffBase: 100,
		MaxCycles:   cfg.MaxCycles,
	})
	if err != nil {
		return RestartCell{}, fmt.Errorf("fault: supervise %s: %w", v.Name, err)
	}
	rc := RestartCell{
		Victim:    v.Name,
		Class:     string(FlipRecord),
		Attempts:  stats.Attempts,
		Restarts:  stats.Restarts,
		GaveUp:    stats.GaveUp,
		Recovered: !stats.GaveUp && stats.Restarts > 0,
		Causes:    stats.Causes,
	}
	switch {
	case !eng.Fired():
		rc.Failure = "fault never fired"
	case stats.GaveUp:
		rc.Failure = "supervisor gave up on a transient fault"
	case stats.Restarts != 1:
		rc.Failure = fmt.Sprintf("%d restarts for one transient fault, want 1", stats.Restarts)
	}
	return rc, nil
}

// The kernel arms every kernel-layer trial runs in each mode: the
// detection contract may not depend on which fast path is active, and
// turning on demand paging may not change any existing class's outcome.
// The layers above the kernel run one arm.
const (
	armCacheOff = iota
	armCachePerProc
	armCacheFleet
	armPaged
	kernelArms
)

var (
	modes    = [...]kernel.Enforcement{kernel.EnforceKill, kernel.EnforceDeny}
	armNames = [kernelArms]string{"", "+cache", "+fleet", "+paged"}
)

// runCell runs every trial of one (scenario, victim) pair.
func runCell(cfg Config, sc *Scenario, vi int, exe *binfmt.File, preps []*prep) (Cell, error) {
	v := &cfg.Victims[vi]
	cell := Cell{Class: string(sc.Name), Layer: sc.Layer, Victim: v.Name, Trials: cfg.Trials}
	t := trial{cfg: cfg, class: sc.Name, exp: sc.Expect, v: v, exe: exe}
	if preps != nil {
		// The donor is the next eligible victim: for the swap class, a
		// chain sealed under the same key for a different program.
		di := (vi + 1) % len(cfg.Victims)
		for !sc.eligible(&cfg.Victims[di]) {
			di = (di + 1) % len(cfg.Victims)
		}
		t.prep, t.donor = preps[vi], preps[di]
	}
	arms := 1
	if sc.Layer == LayerKernel {
		arms = kernelArms
	} else {
		cell.Recovery = &Recovery{}
	}
	for tn := 0; tn < cfg.Trials; tn++ {
		s := cfg.Seed
		_ = splitmix(&s)
		t.subseed = s ^ uint64(vi)<<40 ^ uint64(tn)<<8
		outs := make([]Outcome, 0, len(modes)*arms)
		for _, mode := range modes {
			for arm := 0; arm < arms; arm++ {
				t.mode, t.arm = mode, arm
				out, err := sc.Trial(&t)
				if err != nil {
					return cell, fmt.Errorf("fault: %s/%s/%s trial %d: %w",
						sc.Name, v.Name, runName(len(outs), arms), tn, err)
				}
				outs = append(outs, out)
			}
		}
		cell.Failures = append(cell.Failures, checkTrial(sc.Expect, outs, arms, tn)...)

		k := outs[0]
		if k.Fired {
			cell.Fired++
		}
		if len(k.Reasons) > 0 {
			cell.Detected++
			if cell.Reasons == nil {
				cell.Reasons = map[string]int{}
			}
			for r, n := range k.Reasons {
				cell.Reasons[r] += n
			}
		}
		if k.Result == "clean" {
			cell.Clean++
		}
		for _, o := range outs[arms:] { // the Deny runs
			if o.Result == "runaway" {
				cell.Runaways++
			}
		}
		if cell.Recovery != nil {
			cell.Recovery.add(k.Recovery)
		}
	}
	return cell, nil
}

// runName names the i-th run of a trial: mode, then kernel arm.
func runName(i, arms int) string {
	mode := "kill"
	if i >= arms {
		mode = "deny"
	}
	return mode + armNames[i%arms]
}

// checkTrial validates one trial's runs — Kill then Deny, arms within
// each — against the scenario's contract and the parity requirements.
func checkTrial(exp Expect, outs []Outcome, arms, trial int) []string {
	var fails []string
	badf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf("trial %d: ", trial)+fmt.Sprintf(format, args...))
	}
	// Arm parity: within a mode every arm must agree exactly.
	for i, o := range outs {
		if first := outs[i-i%arms]; !reflect.DeepEqual(o, first) {
			badf("arm parity (%s): %+v vs %+v", runName(i, arms), o, first)
		}
	}
	// Mode parity: Kill and Deny may differ only in the process's fate.
	kill, deny := outs[0], outs[arms]
	kill.Result, kill.Errs, deny.Result, deny.Errs = "", nil, "", nil
	if !reflect.DeepEqual(kill, deny) {
		badf("mode parity: deny %+v, kill %+v", deny, kill)
	}
	for i, o := range outs {
		name := runName(i, arms)
		for _, e := range o.Errs {
			badf("%s: %s", name, e)
		}
		if o.Fired && exp.Detected && len(o.Reasons) == 0 {
			badf("%s: fault not detected: %+v", name, o)
		}
		for _, r := range slices.Sorted(maps.Keys(o.Reasons)) {
			if !exp.ReasonAllowed(r) {
				badf("%s: unexpected reason %q (allowed %v)", name, r, exp.Reasons)
			}
		}
	}
	return fails
}

// pagedBudget is the resident-page budget of paged campaign arms: the
// minimum, so the paged victim's working set overflows immediately.
const pagedBudget = 4

// classNeedsPaging: the swap classes inject on the eviction path, which
// only exists on a paged kernel, so they run paged in every arm (the
// cross-arm parity check then covers cache interactions). Every other
// class exercises paging only in the dedicated paged arm.
func classNeedsPaging(class Class, arm int) bool {
	return arm == armPaged || class == SwapFlip || class == SwapReplay
}

// kernelTrial executes one victim run with an Engine under one mode and
// kernel arm. Socket-surface victims get a fresh virtual network (they
// move real bytes; the network is per-run, so runs stay independent).
func kernelTrial(t *trial) (Outcome, error) {
	fs := vfs.New()
	for _, d := range []string{"/bin", "/etc", "/tmp", "/data"} {
		if err := fs.MkdirAll(d, 0o755); err != nil {
			return Outcome{}, err
		}
	}
	eng := NewEngine(t.class, t.subseed)
	// The campaign probes the FIRST violation, so the audit ring must
	// never wrap: every violating trap costs at least the trap cycles,
	// which bounds how many violations fit in the cycle budget. (The
	// default 1024-entry ring can wrap differently across cache
	// configurations — cache hits are cheaper, so the cached arm packs
	// more denied loop iterations into the same budget.)
	ringCap := int(t.cfg.MaxCycles/kernel.DefaultCosts.Trap) + 16
	opts := []kernel.Option{
		kernel.WithEnforcement(t.mode),
		kernel.WithInjector(eng),
		kernel.WithAuditCapacity(ringCap),
	}
	switch t.arm {
	case armCachePerProc:
		opts = append(opts, kernel.WithCacheMode(kernel.CachePerProcess))
	case armCacheFleet:
		opts = append(opts, kernel.WithVerifyCache(), kernel.WithBatchVerify(8))
	}
	if classNeedsPaging(t.class, t.arm) {
		opts = append(opts, kernel.WithPagedMemory(pagedBudget))
	}
	if t.v.Net {
		opts = append(opts, kernel.WithNetwork(anet.New()))
	}
	k, err := kernel.New(fs, t.cfg.Key, opts...)
	if err != nil {
		return Outcome{}, err
	}
	p, err := k.Spawn(t.exe, "victim")
	if err != nil {
		return Outcome{}, err
	}
	p.Stdin = []byte(t.v.Stdin)
	runErr := k.Run(p, t.cfg.MaxCycles)

	out := Outcome{Fired: eng.Fired()}
	if first, ok := firstViolation(k); ok {
		out.reject(string(first.Reason), 1)
	}
	switch {
	case p.Killed:
		out.Result = "killed"
	case errors.Is(runErr, vm.ErrCycleLimit):
		out.Result = "runaway"
	case runErr != nil:
		return Outcome{}, runErr
	case p.Exited && p.Code == 0 && out.Reasons == nil:
		out.Result = "clean"
	case p.Exited && p.Code == 0:
		out.Result = "denied"
	default:
		out.Result = fmt.Sprintf("exit:%d", p.Code)
	}

	switch {
	case !out.Fired || !t.exp.Detected:
		// Unfired (no eligible site), or outside the protection
		// boundary: the victim must run to a clean exit.
		if out.Result != "clean" {
			out.fail("fired=%v run ended %q, want clean", out.Fired, out.Result)
		}
	case t.mode == kernel.EnforceKill:
		if out.Reasons != nil && out.Result != "killed" {
			out.fail("detected but result %q, want killed", out.Result)
		}
	case out.Result == "killed":
		out.fail("deny-mode process was killed")
	}
	return out, nil
}

// firstViolation returns the oldest violation in the kernel's ring.
func firstViolation(k *kernel.Kernel) (kernel.Violation, bool) {
	ents := k.Audit.Entries()
	if len(ents) == 0 {
		return kernel.Violation{}, false
	}
	return ents[0], true
}

// JSON renders the matrix with stable formatting.
func (m *Matrix) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// Failures returns every accumulated contract violation.
func (m *Matrix) Failures() []string {
	var all []string
	for _, c := range m.Cells {
		for _, f := range c.Failures {
			all = append(all, fmt.Sprintf("%s/%s: %s", c.Class, c.Victim, f))
		}
	}
	for _, r := range m.Restarts {
		if r.Failure != "" {
			all = append(all, fmt.Sprintf("restart/%s: %s", r.Victim, r.Failure))
		}
	}
	return all
}

// Render formats the matrix as an aligned text table. The recovery
// columns are blank on the kernel layer.
func (m *Matrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault campaign: seed=%d trials=%d\n", m.Seed, m.Trials)
	row := "%-28v %-7v %-8v %6v %6v %9v %6v %9v %10v %5v %9v %8v  %v\n"
	fmt.Fprintf(&b, row, "class", "layer", "victim", "trials", "fired", "detected", "clean",
		"runaways", "recovered", "warm", "failovers", "replay", "reasons")
	for _, c := range m.Cells {
		reasons := make([]string, 0, len(c.Reasons))
		for _, r := range slices.Sorted(maps.Keys(c.Reasons)) {
			reasons = append(reasons, fmt.Sprintf("%s×%d", r, c.Reasons[r]))
		}
		status := strings.Join(reasons, ", ")
		if len(c.Failures) > 0 {
			status = fmt.Sprintf("FAILURES=%d %s", len(c.Failures), status)
		}
		rec := []any{"-", "-", "-", "-"}
		if r := c.Recovery; r != nil {
			rec = []any{r.Recovered, r.WarmRestarts, r.Failovers, r.ReplayCycles}
		}
		fmt.Fprintf(&b, row, append(append([]any{c.Class, c.Layer, c.Victim, c.Trials, c.Fired,
			c.Detected, c.Clean, c.Runaways}, rec...), status)...)
	}
	for _, r := range m.Restarts {
		verdict := "recovered"
		if !r.Recovered {
			verdict = "NOT recovered"
		}
		if r.Failure != "" {
			verdict += " (FAILURE: " + r.Failure + ")"
		}
		fmt.Fprintf(&b, "supervised restart %-8s transient %s: %d attempts, %d restarts, %s\n",
			r.Victim, r.Class, r.Attempts, r.Restarts, verdict)
	}
	return b.String()
}
