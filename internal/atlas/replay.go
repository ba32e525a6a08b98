package atlas

import (
	"context"
	"fmt"
	"io"
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
	// Why, when non-nil, attaches a route-provenance journal of
	// whyJournalCap entries to the selected destination's shard after its
	// InitDest and reports the causal chain for (Dest, AS) after the
	// stream completes (State.Why). Only that one shard journals, and its
	// event order is the stream order, so the report stays byte-identical
	// for any worker count.
	Why *WhySpec
}

// whyJournalCap sizes the -why shard's journal in entries. It holds the
// stream's events only; a chain never truncates at an evicted entry,
// since State.Why completes it from the state.
const whyJournalCap = 1 << 16

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
	EventTotals
}

// EventTotals sums one event's EventCost over destination shards:
// EventReport and the serve layer's per-event record embed it.
type EventTotals struct {
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

// Add folds one destination's cost of the event in.
func (t *EventTotals) Add(c EventCost) {
	rounds := c.Rounds()
	t.Rounds += int64(rounds)
	t.MaxRounds = max(t.MaxRounds, rounds)
	t.Changed += c.Changed
	t.BGPLost += c.BGPLost
	t.RedLost += c.RedLost
	t.BlueLost += c.BlueLost
	t.StampLost += c.StampLost
	if c.Reroot {
		t.Reroots++
	}
}

// ReplayReport is the aggregated outcome of an incremental replay.
type ReplayReport struct {
	ASes  int `json:"ases"`
	Links int `json:"links"`
	Dests int `json:"dests"`
	// Scenario names the workload; Events counts one cycle's scripted
	// events, TotalEvents the full stream (Events × Repeat).
	Scenario    string `json:"scenario"`
	Events      int    `json:"events"`
	Repeat      int    `json:"repeat"`
	TotalEvents int    `json:"total_events"`
	// PlaneTotals sums the stream's outcome over destinations.
	PlaneTotals
	// PerEvent is the time-resolved cost curve in stream order; PerDest
	// each shard's outcome in destination (fold) order. Both are
	// independent of worker count.
	PerEvent []EventReport `json:"per_event"`
	PerDest  []DestOutcome `json:"per_dest"`
	// Why is the provenance chain for the requested (dest, AS) pair
	// (ReplayOptions.Why), absent when no -why was asked.
	Why *WhyReport `json:"why,omitempty"`
}

// replayShard is one destination's replay result before the fold; why
// is set on the -why shard only.
type replayShard struct {
	out   DestOutcome
	costs []EventCost
	why   *WhyReport
}

// Repeatable reports whether a script can be cycled indefinitely — the
// check behind ReplayOptions.Repeat and the serve layer's endless
// replay mode: link events only (node failures are permanent,
// withdrawals single-shot) and every link restore-balanced, so each
// cycle ends on the topology the next one expects. Link-quality events
// cycle when every degraded or grayed link ends cleared.
func Repeatable(events []scenario.Event) error {
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
// stream event, re-settling only the invalidated frontier. Each event
// is settled over the ASes it touches, the sparse windows serve runs;
// a window falls back to the N-sized dense passes only when it
// re-roots a lock chain or its touched list overflows, and the report
// is the same either way. Shards run on the worker pool with an
// ordered fold, so the report is byte-identical for any worker count.
// Unlike ConvergeDest's offset-grouped windows, every event is its own
// convergence window — the per-event cost curve is the point.
func Replay(opts ReplayOptions) (*ReplayReport, error) {
	g := opts.Graph
	script, dests, err := DrawWorkload(g, opts.Scenario, opts.Dests, opts.Seed)
	if err != nil {
		return nil, err
	}
	events := script.Sorted()
	repeat := opts.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	if repeat > 1 {
		if err := Repeatable(events); err != nil {
			return nil, err
		}
	}
	total := len(events) * repeat
	eng := NewEngine(g, opts.Params)

	// -why: journal exactly one shard. The journal belongs to the shard,
	// not the pooled state — it is attached for that shard's run only.
	whyShard, whyAS := -1, topology.ASN(0)
	if opts.Why != nil {
		whySpec := *opts.Why
		if whySpec.Auto {
			// First sampled dest, first CSR neighbor: deterministic and
			// always present (sampled dests are multihomed).
			whyShard, whyAS = 0, g.nbr[g.off[dests[0]]]
		} else {
			d, ok := g.DenseASN(whySpec.Dest)
			if !ok {
				return nil, fmt.Errorf("atlas: -why destination AS %d not in the topology", whySpec.Dest)
			}
			a, ok := g.DenseASN(whySpec.AS)
			if !ok {
				return nil, fmt.Errorf("atlas: -why AS %d not in the topology", whySpec.AS)
			}
			whyAS = a
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
	}

	pool := statePool{fresh: func() *State { return newShardState(eng) }}
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
			dest := dests[t.Index]
			// Each engine call takes one sampling decision, its spans on
			// the shard's ring and thread track.
			st.SetTrace(opts.Tracer.Event(t.Index), 0)
			if err := eng.InitDest(st, dest); err != nil {
				return replayShard{}, err
			}
			if t.Index == whyShard {
				st.SetJournal(prov.NewJournal(whyJournalCap))
				defer st.SetJournal(nil)
			}
			costs := make([]EventCost, 0, total)
			for r := 0; r < repeat; r++ {
				for i, ev := range events {
					st.SetTrace(opts.Tracer.Event(t.Index), 0)
					c, err := eng.ApplyEvent(st, ev)
					if err != nil {
						return replayShard{}, fmt.Errorf("dest %d cycle %d event %d (%v): %w", dest, r, i, ev, err)
					}
					costs = append(costs, c)
				}
			}
			shard := replayShard{out: eng.FinishDest(st), costs: costs}
			if t.Index == whyShard {
				shard.why = st.Why(whyAS)
			}
			return shard, nil
		},
	}
	rep := &ReplayReport{
		ASes: g.Len(), Links: g.EdgeCount(),
		Dests:    len(dests),
		Scenario: opts.Scenario.String(),
		Events:   len(events), Repeat: repeat, TotalEvents: total,
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
			r.add(&shard.out)
			for i, c := range shard.costs {
				r.PerEvent[i].Add(c)
			}
			if shard.why != nil {
				r.Why = shard.why
			}
			return r
		})
	if err != nil {
		return nil, err
	}
	rep.finish(len(dests))
	return rep, nil
}

// Print renders the replay report as the CLI's text form.
func (r *ReplayReport) Print(w io.Writer) {
	fmt.Fprintf(w, "atlas replay: %d ASes, %d links, %d destination shards, scenario %s × %d (%d events/cycle, %d total)\n",
		r.ASes, r.Links, r.Dests, r.Scenario, r.Repeat, r.Events, r.TotalEvents)
	r.print(w)
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
