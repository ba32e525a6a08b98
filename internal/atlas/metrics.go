package atlas

import (
	"time"

	"stamp/internal/obs"
)

// Metrics is the atlas engine's handle set into an obs.Registry. Every
// field is a resolved metric handle (mutation is a few atomic ops), so
// recording an EventCost from the incremental path costs no allocation
// and no lock — ApplyEvent's 0 allocs/op gate holds with instrumentation
// attached (TestInstrumentedApplyEventAllocs).
type Metrics struct {
	// Events counts scenario events applied incrementally.
	Events *obs.Counter
	// Rounds observes each event's total re-convergence rounds.
	Rounds *obs.Histogram
	// Frontier observes the seed frontier size per event (ASes queued
	// for re-evaluation when convergence starts, summed over planes) —
	// the quantity that makes incremental repair cheap.
	Frontier *obs.Histogram
	// Changed counts distinct (AS, plane) route changes.
	Changed *obs.Counter
	// Reroots counts events that moved the blue lock chain.
	Reroots *obs.Counter
	// RerootSeconds observes the wall time of each re-rooting event: the
	// red and blue planes re-converge from scratch, the heavy tail of an
	// event stream's cost.
	RerootSeconds *obs.Histogram
	// DenseWindows counts plane windows (three per event) that fell back
	// from touched-set bookkeeping to passes over all ASes: a re-root, or
	// more churn than the fixed-capacity lists hold.
	DenseWindows *obs.Counter
	// Per-plane transient-loss integrals (lost AS-rounds), plus the
	// STAMP data-plane min(red, blue) integral.
	LostBGP, LostRed, LostBlue, LostStamp *obs.Counter
}

// NewMetrics registers the engine's metric families on reg and returns
// the resolved handles.
func NewMetrics(reg *obs.Registry) *Metrics {
	lost := reg.CounterVec("stamp_atlas_lost_as_rounds_total",
		"Transient lost AS-rounds integrated over event windows, by plane.", "plane")
	return &Metrics{
		Events: reg.Counter("stamp_atlas_events_total",
			"Scenario events applied incrementally."),
		Rounds: reg.Histogram("stamp_atlas_event_rounds",
			"Re-convergence rounds per applied event, summed over planes.", obs.RoundsBuckets()),
		Frontier: reg.Histogram("stamp_atlas_event_frontier",
			"Seed frontier size per applied event, summed over planes.",
			[]float64{0, 1, 4, 16, 64, 256, 1024, 4096, 16384}),
		Changed: reg.Counter("stamp_atlas_route_changes_total",
			"Distinct (AS, plane) route changes across applied events."),
		Reroots: reg.Counter("stamp_atlas_reroots_total",
			"Events that moved the blue lock chain, forcing a red/blue re-root."),
		RerootSeconds: reg.Histogram("stamp_atlas_reroot_seconds",
			"Wall-clock cost of each event that re-rooted the red and blue planes.", obs.LatencyBuckets()),
		DenseWindows: reg.Counter("stamp_atlas_dense_windows_total",
			"Plane windows that ran dense passes over all ASes (re-root or touched-list overflow) instead of churn-proportional ones."),
		LostBGP:   lost.With("bgp"),
		LostRed:   lost.With("red"),
		LostBlue:  lost.With("blue"),
		LostStamp: lost.With("stamp"),
	}
}

// Instrument attaches m to the engine: every subsequent ApplyEvent
// records its EventCost into the registry. Pass nil to detach. Attach
// before sharing the engine across workers; the handles themselves are
// safe for concurrent use.
func (e *Engine) Instrument(m *Metrics) { e.metrics = m }

// record streams one event's cost, applied from start, into the metric
// handles.
func (m *Metrics) record(st *State, c EventCost, start time.Time) {
	m.Events.Inc()
	m.Rounds.Observe(float64(c.Rounds()))
	m.Frontier.Observe(float64(st.seedFront[planeBGP] + st.seedFront[planeRed] + st.seedFront[planeBlue]))
	m.Changed.Add(c.Changed)
	if c.Reroot {
		m.Reroots.Inc()
		m.RerootSeconds.Observe(time.Since(start).Seconds())
	}
	m.DenseWindows.Add(int64(st.denseWindows))
	m.LostBGP.Add(c.BGPLost)
	m.LostRed.Add(c.RedLost)
	m.LostBlue.Add(c.BlueLost)
	m.LostStamp.Add(c.StampLost)
}
