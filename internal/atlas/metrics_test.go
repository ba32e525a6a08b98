package atlas

import (
	"bytes"
	"testing"

	"stamp/internal/obs"
	"stamp/internal/scenario"
)

// TestInstrumentedApplyEventAllocs extends the incremental allocs/op
// gate to the instrumented engine: with a Metrics attached and every
// EventCost streamed into the registry, ApplyEvent must still allocate
// nothing. This is the contract that lets stamp serve instrument the
// hot loop for free.
func TestInstrumentedApplyEventAllocs(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	eng := NewEngine(g, DefaultParams())
	eng.Instrument(NewMetrics(obs.NewRegistry()))
	st := eng.NewState()
	groups := stormGroups(t, g, 19)
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.InitDest(st, dests[0]); err != nil {
			t.Fatal(err)
		}
		for _, group := range groups {
			for _, ev := range group {
				if _, err := eng.ApplyEvent(st, ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		eng.FinishDest(st)
	})
	if allocs != 0 {
		t.Fatalf("instrumented incremental loop allocates: %v allocs/op, want 0", allocs)
	}
}

// TestMetricsMatchEventCosts pins that the registry's totals equal the
// sum of the EventCosts ApplyEvent returned — the instrumentation
// records exactly what the caller sees.
func TestMetricsMatchEventCosts(t *testing.T) {
	_, g := testGraph(t, 200, 7)
	reg := obs.NewRegistry()
	eng := NewEngine(g, DefaultParams())
	eng.Instrument(NewMetrics(reg))
	st := eng.NewState()
	dests, err := Destinations(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	var events, changed, stampLost, reroots, dense int64
	var rounds int64
	for _, dest := range dests {
		if err := eng.InitDest(st, dest); err != nil {
			t.Fatal(err)
		}
		for _, group := range stormGroups(t, g, 23) {
			for _, ev := range group {
				cost, err := eng.ApplyEvent(st, ev)
				if err != nil {
					t.Fatal(err)
				}
				events++
				rounds += int64(cost.Rounds())
				changed += cost.Changed
				stampLost += cost.StampLost
				if cost.Reroot {
					reroots++
				}
				dense += int64(st.DenseWindows())
			}
		}
		// Past the storm, force a dense window so the counter is seen to
		// move: fail the destination's locked (lowest) provider link, which
		// moves the blue chain and re-roots red and blue.
		cost, err := eng.ApplyEvent(st, scenario.Event{Op: scenario.OpFailLink, A: dest, B: g.Providers(dest)[0]})
		if err != nil {
			t.Fatal(err)
		}
		if !cost.Reroot || st.DenseWindows() < 2 {
			t.Fatalf("failing the locked provider link: reroot %v, %d dense windows; want a re-root and red and blue dense", cost.Reroot, st.DenseWindows())
		}
		events++
		rounds += int64(cost.Rounds())
		changed += cost.Changed
		stampLost += cost.StampLost
		reroots++
		dense += int64(st.DenseWindows())
	}
	m := NewMetricsReadback(t, reg)
	if got := m["stamp_atlas_dense_windows_total"]; got != float64(dense) {
		t.Errorf("dense_windows_total = %v, want %d", got, dense)
	}
	if got := m["stamp_atlas_events_total"]; got != float64(events) {
		t.Errorf("events_total = %v, want %d", got, events)
	}
	if got := m["stamp_atlas_event_rounds_sum"]; got != float64(rounds) {
		t.Errorf("event_rounds_sum = %v, want %d", got, rounds)
	}
	if got := m["stamp_atlas_route_changes_total"]; got != float64(changed) {
		t.Errorf("route_changes_total = %v, want %d", got, changed)
	}
	if got := m["stamp_atlas_reroots_total"]; got != float64(reroots) {
		t.Errorf("reroots_total = %v, want %d", got, reroots)
	}
	if got := m["stamp_atlas_reroot_seconds_count"]; got != float64(reroots) {
		t.Errorf("reroot_seconds_count = %v, want %d (one observation per re-root)", got, reroots)
	}
	if got := m[`stamp_atlas_lost_as_rounds_total{plane="stamp"}`]; got != float64(stampLost) {
		t.Errorf("lost(stamp) = %v, want %d", got, stampLost)
	}
}

// NewMetricsReadback scrapes reg through the text format and returns a
// key→value map (keys as Sample.Key renders them).
func NewMetricsReadback(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(sc.Samples))
	for _, s := range sc.Samples {
		out[s.Key()] = s.Value
	}
	return out
}

// SnapshotRoutes coverage: the copied slabs must agree with RouteAt
// modulo the via→next-hop resolution.
func TestSnapshotRoutes(t *testing.T) {
	_, g := testGraph(t, 150, 3)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitDest(st, dests[0]); err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	kind := make([]int8, n)
	dist := make([]int32, n)
	next := make([]int32, n)
	for p := 0; p < PlaneCount; p++ {
		st.SnapshotRoutes(p, kind, dist, next)
		for a := int32(0); a < int32(n); a++ {
			k, d, via := st.RouteAt(p, a)
			if kind[a] != k {
				t.Fatalf("plane %d AS %d: kind %d != RouteAt %d", p, a, kind[a], k)
			}
			if k == 0 {
				if next[a] != -1 {
					t.Fatalf("plane %d AS %d: routeless next = %d, want -1", p, a, next[a])
				}
				continue
			}
			if dist[a] != d {
				t.Fatalf("plane %d AS %d: dist %d != RouteAt %d", p, a, dist[a], d)
			}
			switch via {
			case -2:
				if next[a] != -2 {
					t.Fatalf("plane %d AS %d: origin next = %d, want -2", p, a, next[a])
				}
			default:
				if want := int32(g.nbr[via]); next[a] != want {
					t.Fatalf("plane %d AS %d: next %d, want neighbor %d", p, a, next[a], want)
				}
			}
		}
	}
}
