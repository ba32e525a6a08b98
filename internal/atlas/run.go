package atlas

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// Options configures one atlas run: one scenario script converged at
// many destinations, the destinations sharded across workers.
type Options struct {
	// Graph is the CSR topology (required).
	Graph *Graph
	// Params tunes the engine (DefaultParams when zero).
	Params Params
	// Scenario is the workload kind; the script instance is drawn from
	// Seed. PrefixWithdraw is single-origin and not meaningful across
	// destination shards; every other kind works.
	Scenario scenario.Kind
	// Dests is the number of destination shards (<= 0: DefaultDests,
	// capped to the number of multi-homed ASes).
	Dests int
	// Seed drives the workload draw and the destination sample.
	Seed int64
	// Workers sizes the shard pool (<= 0: one per CPU).
	Workers int
	// Progress receives (done, total) shard counts.
	Progress func(done, total int)
	// Context cancels the run between destination shards.
	Context context.Context
}

// DefaultDests is the default destination-shard count: enough that the
// aggregate is not one destination's anecdote, small enough that a
// 50k-AS ingested snapshot converges in seconds.
const DefaultDests = 64

// Seed-derivation stream labels (runner.DeriveSeed).
const (
	streamScript int64 = iota + 1
	streamDests
)

// PlaneReport aggregates one plane over all destination shards.
type PlaneReport struct {
	Name string `json:"name"`
	// Rounds of initial convergence / summed re-convergence, averaged
	// over destinations; Max is the worst single (dest, group) window.
	InitRoundsMean   float64 `json:"init_rounds_mean"`
	ReconvRoundsMean float64 `json:"reconv_rounds_mean"`
	MaxReconvRounds  int32   `json:"max_reconv_rounds"`
	// Totals over all destinations.
	Changed          int64 `json:"changed"`
	LostASRounds     int64 `json:"lost_as_rounds"`
	PermLostASRounds int64 `json:"perm_lost_as_rounds"`
	UnreachableFinal int64 `json:"unreachable_final"`
}

// PlaneTotals folds destination outcomes into per-plane aggregates and
// STAMP's data-plane totals; Report and ReplayReport embed it.
type PlaneTotals struct {
	BGP  PlaneReport `json:"bgp"`
	Red  PlaneReport `json:"red"`
	Blue PlaneReport `json:"blue"`
	// StampLostASRounds is the STAMP data-plane transient loss (both
	// planes down simultaneously); compare against BGP.LostASRounds for
	// the paper's ordering.
	StampLostASRounds     int64 `json:"stamp_lost_as_rounds"`
	StampUnreachableFinal int64 `json:"stamp_unreachable_final"`
}

// Report is the aggregated outcome of an atlas run.
type Report struct {
	ASes  int `json:"ases"`
	Links int `json:"links"`
	// Dests is the number of destination shards converged; Groups the
	// number of event groups in the script.
	Dests  int `json:"dests"`
	Groups int `json:"groups"`
	// Scenario names the workload; Events counts scripted events.
	Scenario string `json:"scenario"`
	Events   int    `json:"events"`
	PlaneTotals
	// PerDest keeps each shard's outcome in destination order (the fold
	// order), so downstream analysis does not depend on worker count.
	PerDest []DestOutcome `json:"per_dest"`
}

// Destinations draws n distinct multi-homed destination ASes from the
// graph, deterministically from seed: a seeded shuffle of the
// multi-homed list, so any (graph, seed, n) names the same shard set on
// every run and worker count.
func Destinations(g *Graph, n int, seed int64) ([]topology.ASN, error) {
	return destinations(scenario.Multihomed(g), n, seed)
}

// destinations is Destinations over a precomputed candidate list, so
// DrawWorkload scans the graph once for both the script and the shard
// sample.
func destinations(multihomed []topology.ASN, n int, seed int64) ([]topology.ASN, error) {
	if len(multihomed) == 0 {
		return nil, fmt.Errorf("atlas: topology has no multi-homed AS")
	}
	if n <= 0 {
		n = DefaultDests
	}
	if n > len(multihomed) {
		n = len(multihomed)
	}
	rng := rand.New(rand.NewSource(seed))
	picked := append([]topology.ASN(nil), multihomed...)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(picked)-i)
		picked[i], picked[j] = picked[j], picked[i]
	}
	return picked[:n], nil
}

// DrawWorkload checks and draws the destination-sharded workload that
// Run, Replay and the serve layer share: the scenario script from
// Seed's script stream and dests destinations (see Destinations) from
// its destination stream, so any (graph, kind, dests, seed) names the
// same workload on every driver.
func DrawWorkload(g *Graph, kind scenario.Kind, dests int, seed int64) (scenario.Script, []topology.ASN, error) {
	if g == nil {
		return scenario.Script{}, nil, fmt.Errorf("atlas: nil graph")
	}
	if kind == scenario.PrefixWithdraw {
		return scenario.Script{}, nil, fmt.Errorf("atlas: prefix-withdraw is single-origin; destination-sharded atlas runs need a link or node workload")
	}
	multihomed := scenario.Multihomed(g)
	script, err := scenario.PickScript(g, multihomed, kind,
		rand.New(rand.NewSource(runner.DeriveSeed(seed, streamScript))))
	if err != nil {
		return scenario.Script{}, nil, err
	}
	picked, err := destinations(multihomed, dests, runner.DeriveSeed(seed, streamDests))
	return script, picked, err
}

// statePool lends destination shards their slab States, which are big
// (O(n) per plane). The runner never has more shards in flight than
// workers, so a plain free list creates at most one State per worker.
// A sync.Pool would not bound them: its per-P slots cannot be stolen,
// so a worker that moves to another P gets a fresh State, and a
// collection empties it.
type statePool struct {
	mu    sync.Mutex
	free  []*State
	fresh func() *State
}

// newShardState makes the States Run and Replay lend their shards; a
// variable so tests can count them.
var newShardState = (*Engine).NewState

func (p *statePool) get() *State {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		st := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return st
	}
	p.mu.Unlock()
	return p.fresh()
}

func (p *statePool) put(st *State) {
	p.mu.Lock()
	p.free = append(p.free, st)
	p.mu.Unlock()
}

// Run converges the scenario at Dests destinations, sharded across the
// worker pool with an ordered fold: the Report is byte-identical for
// any worker count.
func Run(opts Options) (*Report, error) {
	g := opts.Graph
	script, dests, err := DrawWorkload(g, opts.Scenario, opts.Dests, opts.Seed)
	if err != nil {
		return nil, err
	}
	groups := groupEvents(script)
	eng := NewEngine(g, opts.Params)

	pool := statePool{fresh: func() *State { return newShardState(eng) }}
	spec := runner.Spec[DestOutcome]{
		Name:   fmt.Sprintf("atlas(%v)", opts.Scenario),
		Trials: len(dests),
		Seed:   opts.Seed,
		Run: func(t runner.Trial) (DestOutcome, error) {
			if err := t.Ctx.Err(); err != nil {
				return DestOutcome{}, err
			}
			st := pool.get()
			defer pool.put(st)
			return eng.ConvergeDest(st, dests[t.Index], groups)
		},
	}
	rep := &Report{
		ASes: g.Len(), Links: g.EdgeCount(),
		Dests: len(dests), Groups: len(groups),
		Scenario: opts.Scenario.String(), Events: len(script.Events),
	}
	rep, err = runner.Fold(spec, runner.Options{Workers: opts.Workers, Progress: opts.Progress, Context: opts.Context},
		rep, func(r *Report, _ runner.Trial, out DestOutcome) *Report {
			out.DestASN = g.OriginalASN(out.Dest)
			r.PerDest = append(r.PerDest, out)
			r.add(&out)
			return r
		})
	if err != nil {
		return nil, err
	}
	rep.finish(len(dests))
	return rep, nil
}

// Print renders the report as the CLI's text form.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "atlas: %d ASes, %d links, %d destination shards, scenario %s (%d events in %d groups)\n",
		r.ASes, r.Links, r.Dests, r.Scenario, r.Events, r.Groups)
	r.print(w)
}

// planes indexes the per-plane aggregates by plane constant.
func (t *PlaneTotals) planes() [planeCount]*PlaneReport {
	return [planeCount]*PlaneReport{&t.BGP, &t.Red, &t.Blue}
}

// add folds one destination's outcome in. Means accumulate as sums and
// divide once in finish; the fold runs in destination order, so even
// float accumulation would be deterministic — integer sums make it
// trivially so.
func (t *PlaneTotals) add(out *DestOutcome) {
	outs := planesOf(out)
	for p, agg := range t.planes() {
		o := outs[p]
		agg.InitRoundsMean += float64(o.InitRounds)
		agg.ReconvRoundsMean += float64(o.ReconvRounds)
		agg.MaxReconvRounds = max(agg.MaxReconvRounds, o.MaxReconvRounds)
		agg.Changed += o.Changed
		agg.LostASRounds += o.LostASRounds
		agg.PermLostASRounds += o.PermLostASRounds
		agg.UnreachableFinal += int64(o.UnreachableFinal)
	}
	t.StampLostASRounds += out.StampLostASRounds
	t.StampUnreachableFinal += int64(out.StampUnreachableFinal)
}

// finish names the planes and turns the summed rounds of dests folded
// outcomes into means.
func (t *PlaneTotals) finish(dests int) {
	for p, agg := range t.planes() {
		agg.Name = PlaneName(p)
		if dests > 0 {
			agg.InitRoundsMean /= float64(dests)
			agg.ReconvRoundsMean /= float64(dests)
		}
	}
}

// print renders the plane table and STAMP's data-plane line.
func (t *PlaneTotals) print(w io.Writer) {
	fmt.Fprintf(w, "  %-5s %13s %15s %11s %13s %13s %12s\n",
		"plane", "init rounds", "reconv rounds", "max window", "changed", "lost AS-rnd", "unreachable")
	for _, p := range t.planes() {
		fmt.Fprintf(w, "  %-5s %13.1f %15.1f %11d %13d %13d %12d\n",
			p.Name, p.InitRoundsMean, p.ReconvRoundsMean, p.MaxReconvRounds,
			p.Changed, p.LostASRounds, p.UnreachableFinal)
	}
	fmt.Fprintf(w, "  STAMP data plane (min of red/blue): %d lost AS-rounds, %d unreachable — vs BGP %d lost\n",
		t.StampLostASRounds, t.StampUnreachableFinal, t.BGP.LostASRounds)
}
