// Package lab is the single experiment layer of the repository: one
// uniform Request (topology spec, scenario script, protocol set, trials,
// seed, workers, backend), one versioned Result envelope (named,
// mergeable metrics under a schema_version), a registry of named
// experiments whose entries run their harnesses straight from the
// Request, and one (trial, protocol) shard enumeration that every
// trial-based harness runs on the worker pool. Entries that can also run
// live (loss, emu-converge) switch on Request.Backend between the
// simulator in virtual time and the emulated fleet in wall-clock time.
//
// The paper's evaluation is one grid — {BGP, R-BGP±RCI, STAMP} ×
// {failure scenarios} × {topologies} × {metrics} — and this package
// exposes it as one: `Run(Request{Experiment: "transient", ...})` is the
// only entry point cmd/stamp (and anything else) needs. Adding a
// workload is one Register call. The entry names the command-line
// flags it reads in Experiment.Flags, beyond the header every entry
// shares (-n, -seed, -topo, -workers, -json, -progress); `stamp run
// <name>` offers exactly those, so a flag the experiment would ignore
// is a usage error rather than a silent no-op. Run zeroes the trial
// count of an entry that does not declare "trials" and pins the
// scenario of one that does not declare "scenario" to its default, so
// the envelope reports only what the run read.
package lab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/steer"
	"stamp/internal/topology"
	"stamp/internal/traffic"
)

// SchemaVersion is the version stamped into every Result envelope. Bump
// it whenever the JSON shape of the envelope or any registered
// experiment's Data payload changes incompatibly; the golden-file tests
// under testdata/schema pin the current shape.
const SchemaVersion = 1

// TopoSpec selects the experiment's topology: a CAIDA AS-relationship
// file when Path is set, a generated Internet-like graph otherwise.
type TopoSpec struct {
	// N is the generated topology size (<= 0: the experiment's default).
	N int `json:"n,omitempty"`
	// Seed is the generator seed (0: the request's master Seed).
	Seed int64 `json:"seed,omitempty"`
	// Path is a CAIDA AS-rel file to load instead of generating.
	Path string `json:"path,omitempty"`
}

// Request is the uniform experiment request every registered experiment
// consumes. Zero values mean "the experiment's default"; normalization
// happens inside Run, so a literal Request with only Experiment set is
// valid.
type Request struct {
	// Experiment is the registry name (see Names).
	Experiment string
	// Topo selects the topology.
	Topo TopoSpec
	// Scenario is the failure-script name (scenario.Names); "" picks the
	// experiment's default. Preset experiments (figure2, …) pin it.
	Scenario string
	// Trials is the number of random workload instances (<= 0: 10).
	Trials int
	// Seed is the master seed; every trial derives its own workload and
	// engine seeds from it, so results never depend on Workers.
	Seed int64
	// Protocols under test by CLI name (bgp, rbgp-norci, rbgp, stamp),
	// each at most once; nil means all four.
	Protocols []string
	// Backend selects the execution engine: "sim" (virtual time) or
	// "emu" (wall-clock live fleet); "" picks the experiment's default.
	Backend string
	// Transport is the emu session carrier: "pipe" (default) or "tcp".
	Transport string
	// Flows is the number of flows per source AS for traffic-injecting
	// experiments (<= 0: 1).
	Flows int
	// Tick and Ticks control traffic sampling (0: backend defaults).
	Tick  time.Duration
	Ticks int
	// Workers sizes the trial worker pool, and the emu boot pool
	// (<= 0: one per CPU / backend default).
	Workers int
	// Dests is the destination-shard count for atlas experiments
	// (<= 0: atlas.DefaultDests).
	Dests int
	// Repeat cycles the scenario script for stream experiments
	// (atlas-replay); <= 0 means once. Only restore-balanced scripts
	// (flap, storm) may repeat.
	Repeat int
	// TopoSeeds are the sweep experiment's topology generator seeds
	// (nil: {1, 2, 3}).
	TopoSeeds []int64
	// Readers is the concurrent-client count for load experiments
	// (serve-load); <= 0 means the experiment default.
	Readers int
	// LoadFor bounds a load experiment's measurement window (0: the
	// experiment default).
	LoadFor time.Duration
	// ConvergeTimeout overrides the emu fleet's convergence timeout (0:
	// the emu default).
	ConvergeTimeout time.Duration
	// NoDiff skips the sim-reference differential validation on emu
	// runs (the live measurement still happens).
	NoDiff bool
	// Steer tunes the steering policy for steer experiments (zero
	// values = policy defaults; see steer.DefaultConfig).
	Steer steer.Config
	// Why, when non-empty, makes stream experiments (atlas-replay)
	// record a route-provenance journal and report the causal chain for
	// one (destination, AS) pair after the replay: "auto" picks the
	// first destination shard and its first CSR neighbor, "DEST:AS"
	// names original ASNs explicitly.
	Why string
	// TracePath, when non-empty, makes stream experiments
	// (atlas-replay) record causal convergence spans and write them as
	// a Chrome trace-event JSON to this file (loadable in Perfetto).
	TracePath string
	// TraceSample thins the trace to 1-in-N applied events (<= 1:
	// every event).
	TraceSample int
	// Progress, when non-nil, receives (done, total) shard counts.
	Progress func(done, total int)
	// Context cancels the run: dispatch stops and in-flight trials are
	// interrupted at their engines (nil = background).
	Context context.Context
}

// normalized fills request-level defaults (experiment-level ones — N,
// scenario, backend — are filled by Run from the registry entry). Zero
// means "default"; a negative count, duration or steering threshold is
// a usage error rather than silently becoming the default. Seed is used
// as given: 0 is a valid master seed (the CLI's own default is 1), so
// coercing it would silently mislabel an explicit -seed 0 run.
// Steer.CooldownTicks stays signed: negative disables the cooldown.
func (r Request) normalized() (Request, error) {
	for _, f := range []struct {
		flag string
		v    float64
	}{
		{"trials", float64(r.Trials)}, {"flows", float64(r.Flows)},
		{"tick", float64(r.Tick)}, {"ticks", float64(r.Ticks)},
		{"dests", float64(r.Dests)}, {"repeat", float64(r.Repeat)},
		{"readers", float64(r.Readers)}, {"load-for", float64(r.LoadFor)},
		{"timeout", float64(r.ConvergeTimeout)}, {"trace-sample", float64(r.TraceSample)},
		{"steer-degrade-ms", r.Steer.DegradeMs}, {"steer-comfort-ms", r.Steer.ComfortMs},
		{"steer-max-ms", r.Steer.AbsMaxMs}, {"steer-n", float64(r.Steer.Consecutive)},
	} {
		if f.v < 0 {
			return r, fmt.Errorf("%w: -%s must be 0 or positive", ErrUsage, f.flag)
		}
	}
	if r.Trials <= 0 {
		r.Trials = 10
	}
	if len(r.TopoSeeds) == 0 {
		r.TopoSeeds = []int64{1, 2, 3}
	}
	if r.Topo.Seed == 0 {
		r.Topo.Seed = r.Seed
	}
	if r.Transport == "" {
		r.Transport = "pipe"
	}
	if r.Flows <= 0 {
		r.Flows = 1
	}
	return r, nil
}

// ctx returns the request context, never nil.
func (r Request) ctx() context.Context {
	if r.Context == nil {
		return context.Background()
	}
	return r.Context
}

// runner returns the pool options every sharded harness runs under.
func (r Request) runner() runner.Options {
	return runner.Options{Workers: r.Workers, Progress: r.Progress, Context: r.ctx()}
}

// sampling returns the request's traffic sampling layout, zero values
// replaced by the experiment's defaults.
func (r Request) sampling(tick time.Duration, ticks int) (time.Duration, int) {
	if r.Tick > 0 {
		tick = r.Tick
	}
	if r.Ticks > 0 {
		ticks = r.Ticks
	}
	return tick, ticks
}

// graphCache memoizes loaded/generated topologies per process. Graphs
// are read-only once built (the runner relies on that already), so
// sharing one instance across experiments is safe; it saves a process
// that runs several experiments on one topology (the benchmarks, the
// tests) from regenerating it each time. Keyed by the full TopoSpec — a
// reloaded file path is assumed stable for the process lifetime (true
// for a CLI run).
var graphCache sync.Map // TopoSpec -> *topology.Graph

// graph loads or generates the request's topology, memoized per
// TopoSpec.
func (r Request) graph() (*topology.Graph, error) {
	if g, ok := graphCache.Load(r.Topo); ok {
		return g.(*topology.Graph), nil
	}
	g, err := r.buildGraph()
	if err != nil {
		return nil, err
	}
	graphCache.Store(r.Topo, g)
	return g, nil
}

func (r Request) buildGraph() (*topology.Graph, error) {
	if r.Topo.Path != "" {
		// OpenASRel sniffs gzip, so CAIDA's .txt.gz snapshots load as-is.
		g, _, err := topology.OpenASRel(r.Topo.Path)
		return g, err
	}
	return topology.GenerateDefault(r.Topo.N, r.Topo.Seed)
}

// ErrUsage marks a request that asks for something no run can give, as
// opposed to a run that failed; cmd/stamp exits 2 on it.
var ErrUsage = errors.New("usage")

// protocols parses the request's protocol names; none means the four
// of the paper's evaluation, or for steer the grid's four arms. A
// protocol named twice is a usage error: its shards would merge into
// one row and count every trial twice. The steering arm needs the
// link-cost model and policy that only the steer grid supplies, so only
// steer admits it.
func (r Request) protocols(steer bool) ([]traffic.Protocol, error) {
	if len(r.Protocols) == 0 {
		if steer {
			return traffic.GridProtocols(), nil
		}
		return traffic.AllProtocols(), nil
	}
	out := make([]traffic.Protocol, 0, len(r.Protocols))
	for _, name := range r.Protocols {
		p, err := traffic.ParseProtocol(name)
		if err != nil {
			return nil, err
		}
		if p == traffic.STAMPSteer && !steer {
			return nil, fmt.Errorf("%w: protocol %q runs only in the steer experiments (steer-latency, steer-loss)", ErrUsage, name)
		}
		if slices.Contains(out, p) {
			return nil, fmt.Errorf("%w: protocol %q named twice", ErrUsage, name)
		}
		out = append(out, p)
	}
	return out, nil
}

// workload is the request's scenario on g, faced by its protocols
// (steer: see protocols) and seeded by its master seed.
func (r Request) workload(g *topology.Graph, steer bool) (workload, error) {
	kind, err := scenario.ParseKind(r.Scenario)
	if err != nil {
		return workload{}, err
	}
	protos, err := r.protocols(steer)
	if err != nil {
		return workload{}, err
	}
	return newWorkload(g, kind, protos, r.Seed), nil
}

// TopoInfo describes the topology a result was measured on.
type TopoInfo struct {
	ASes   int  `json:"ases"`
	Links  int  `json:"links"`
	Tier1s int  `json:"tier1s"`
	Loaded bool `json:"loaded,omitempty"`
}

// Result is the uniform envelope every experiment returns: run identity
// (experiment, backend, scenario, seed, topology), the divergence count
// gating the CLI exit code, and the experiment's own Data payload, all
// under one schema_version. Marshaling a Result is the lab's JSON
// contract; the golden-file tests pin its shape per experiment.
type Result struct {
	SchemaVersion int      `json:"schema_version"`
	Experiment    string   `json:"experiment"`
	Backend       string   `json:"backend"`
	Scenario      string   `json:"scenario,omitempty"`
	Trials        int      `json:"trials,omitempty"`
	Seed          int64    `json:"seed"`
	Topology      TopoInfo `json:"topology"`
	// Divergences counts differential-validation mismatches (sim vs
	// live); nonzero fails the run (exit code 1 in cmd/stamp).
	Divergences int `json:"divergences"`
	// Data is the experiment-specific payload.
	Data any `json:"data"`
}

// printer is what experiment payloads implement for text rendering.
type printer interface{ Print(w io.Writer) }

// Print renders the envelope header and delegates to the payload's own
// text form.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — backend %s, %d ASes, %d links, %d tier-1s, seed %d\n",
		r.Experiment, r.Backend, r.Topology.ASes, r.Topology.Links, r.Topology.Tier1s, r.Seed)
	if p, ok := r.Data.(printer); ok {
		p.Print(w)
	} else {
		fmt.Fprintf(w, "%+v\n", r.Data)
	}
}

// envelope builds the Result shell for the request, measured on the
// topology topo describes.
func (r Request) envelope(backend string, topo TopoInfo, data any) *Result {
	topo.Loaded = r.Topo.Path != ""
	return &Result{
		SchemaVersion: SchemaVersion,
		Experiment:    r.Experiment,
		Backend:       backend,
		Scenario:      r.Scenario,
		Trials:        r.Trials,
		Seed:          r.Seed,
		Topology:      topo,
		Data:          data,
	}
}

// graphInfo describes an adjacency-list topology.
func graphInfo(g *topology.Graph) TopoInfo {
	return TopoInfo{ASes: g.Len(), Links: g.EdgeCount(), Tier1s: len(g.Tier1s())}
}

// atlasInfo describes a CSR topology.
func atlasInfo(g *atlas.Graph) TopoInfo {
	return TopoInfo{ASes: g.Len(), Links: g.EdgeCount(), Tier1s: g.Tier1Count()}
}
