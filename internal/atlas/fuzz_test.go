package atlas

import (
	"testing"

	"stamp/internal/prov"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

// fuzzEvents decodes raw fuzz bytes into a valid event sequence on g:
// three bytes per event (op selector + 16-bit subject), links toggled
// so a fail is never applied to a down link, node failures at most once
// per node, the withdraw at most once and only at dest. Bounded at 24
// events so a fuzz input cannot run unboundedly long.
func fuzzEvents(g *Graph, dest topology.ASN, edges [][2]topology.ASN, data []byte) []scenario.Event {
	const maxEvents = 24
	linkDown := make(map[int]bool)
	nodeDown := make(map[topology.ASN]bool)
	withdrawn := false
	var events []scenario.Event
	for i := 0; i+2 < len(data) && len(events) < maxEvents; i += 3 {
		op := data[i] % 4
		idx := int(data[i+1]) | int(data[i+2])<<8
		switch op {
		case 0, 1:
			e := idx % len(edges)
			l := edges[e]
			if linkDown[e] {
				events = append(events, scenario.Event{Op: scenario.OpRestoreLink, A: l[0], B: l[1]})
			} else {
				events = append(events, scenario.Event{Op: scenario.OpFailLink, A: l[0], B: l[1]})
			}
			linkDown[e] = !linkDown[e]
		case 2:
			node := topology.ASN(idx % g.Len())
			if nodeDown[node] {
				continue
			}
			nodeDown[node] = true
			events = append(events, scenario.Event{Op: scenario.OpFailNode, Node: node})
		case 3:
			if withdrawn {
				continue
			}
			withdrawn = true
			events = append(events, scenario.Event{Op: scenario.OpWithdraw, Node: dest})
		}
	}
	return events
}

// graphEdges lists the undirected links of the CSR graph once, for the
// fuzz decoder to index into.
func graphEdges(g *Graph) [][2]topology.ASN {
	edges := make([][2]topology.ASN, 0, g.EdgeCount())
	var buf []topology.ASN
	for a := 0; a < g.Len(); a++ {
		buf = g.Neighbors(buf[:0], topology.ASN(a))
		for _, b := range buf {
			if topology.ASN(a) < b {
				edges = append(edges, [2]topology.ASN{topology.ASN(a), b})
			}
		}
	}
	return edges
}

// FuzzIncrementalConverge drives random (but valid) event sequences
// through the incremental path, at a destination the input picks among
// sixteen (twelve leaves and four transit ASes: a leaf destination is
// the one leaf a from-scratch window reaches in its loop), and checks
// the invariants the replay subsystem rests on: after every event the
// incremental fixpoint equals a from-scratch convergence (on the flat
// engine and the map reference), and both flat states' custUp sets
// match their advertisements; the flat engine's sparse windows — at the
// default touched-list capacity, at 0 (always dense) and at tiny ones
// (overflow part-way) — report the EventCost, DestOutcome, routes and
// canonical journal of the map engine's dense passes; and the flat
// incremental hot loop allocates nothing.
//
// Run long with: go test -fuzz=FuzzIncrementalConverge ./internal/atlas/
func FuzzIncrementalConverge(f *testing.F) {
	tg, err := topology.GenerateDefault(200, 7)
	if err != nil {
		f.Fatal(err)
	}
	g, err := FromTopology(tg)
	if err != nil {
		f.Fatal(err)
	}
	edges := graphEdges(g)
	dests, err := Destinations(g, 16, 3)
	if err != nil {
		f.Fatal(err)
	}
	flat := NewEngine(g, DefaultParams())
	ref := NewMapEngine(g, DefaultParams())
	ist, sst := flat.NewState(), flat.NewState()
	mist, msst := ref.NewState(), ref.NewState()
	fx := newStreamFixture(g)

	f.Add(uint8(0), []byte{0, 1, 0, 0, 1, 0})          // fail + restore one link
	f.Add(uint8(0), []byte{2, 5, 0, 0, 9, 1, 1, 9, 1}) // node fail, link toggles
	f.Add(uint8(0), []byte{3, 0, 0, 0, 2, 0})          // withdraw then link fail
	f.Add(uint8(0), []byte{0, 200, 0, 2, 200, 0, 0, 17, 2, 3, 0, 0, 1, 44, 1})
	for pick := uint8(1); pick < uint8(len(dests)); pick++ {
		f.Add(pick, []byte{2, 5, 0, 0, 9, 1, 1, 9, 1, 3, 0, 0})
	}

	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		dest := dests[int(pick)%len(dests)]
		events := fuzzEvents(g, dest, edges, data)
		if err := flat.InitDest(ist, dest); err != nil {
			t.Fatal(err)
		}
		if err := ref.InitDest(mist, dest); err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			if _, err := flat.ApplyEvent(ist, ev); err != nil {
				t.Fatalf("event %d %v: %v", i, ev, err)
			}
			if err := flat.ConvergeScratch(sst, dest, events[:i+1]); err != nil {
				t.Fatalf("event %d %v scratch: %v", i, ev, err)
			}
			mustNoDiff(t, ev.String()+" flat", ist, sst)
			checkCustUp(t, ev.String()+" flat", ist)
			checkCustUp(t, ev.String()+" flat scratch", sst)
			if _, err := ref.ApplyEvent(mist, ev); err != nil {
				t.Fatalf("event %d %v map: %v", i, ev, err)
			}
			if err := ref.ConvergeScratch(msst, dest, events[:i+1]); err != nil {
				t.Fatalf("event %d %v map scratch: %v", i, ev, err)
			}
			mustNoDiff(t, ev.String()+" map", mist, msst)
			mustNoDiff(t, ev.String()+" flat-vs-map", ist, mist)
		}
		if len(events) == 0 {
			return
		}
		fx.checkStream(t, dest, events)
		// The 0 allocs/op invariant holds for the whole derived sequence,
		// not just the curated benchmark workload.
		allocs := testing.AllocsPerRun(1, func() {
			if err := flat.InitDest(ist, dest); err != nil {
				t.Fatal(err)
			}
			for _, ev := range events {
				if _, err := flat.ApplyEvent(ist, ev); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("incremental loop allocates: %v allocs/op over %d events, want 0", allocs, len(events))
		}
	})
}

// TestIncrementalHotLoopAllocs is the deterministic allocs/op gate on
// the incremental path, mirroring TestConvergeHotLoopAllocs for the
// grouped driver: one InitDest plus a full storm event stream on a
// reused state allocates nothing. Tracing and provenance are compiled
// into that path now, so the gate runs four ways: tracer detached
// (nil), tracer attached but not sampling this stream, tracer attached
// with every event sampled, and the provenance journal attached on top
// of full sampling — all must stay at 0 allocs/op.
func TestIncrementalHotLoopAllocs(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	groups := stormGroups(t, g, 19)
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		tracer  *trace.Tracer
		journal bool
	}{
		{"no-tracer", nil, false},
		{"tracer-not-sampled", trace.New(trace.Options{Shards: 1, SampleEvery: 1 << 30}), false},
		{"tracer-sampled", trace.New(trace.Options{Shards: 1, BufferPerShard: 4096}), false},
		{"journal", trace.New(trace.Options{Shards: 1, BufferPerShard: 4096}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(g, DefaultParams())
			st := eng.NewState()
			if tc.journal {
				st.SetJournal(prov.NewJournal(1 << 14))
			}
			// Burn the sampler's always-sampled first decision outside the
			// measured loop so the not-sampled case measures the skip path.
			st.SetTrace(tc.tracer.Event(0), 0)
			eng.InitDest(st, dests[0])
			allocs := testing.AllocsPerRun(20, func() {
				st.SetTrace(tc.tracer.Event(0), 0)
				if err := eng.InitDest(st, dests[0]); err != nil {
					t.Fatal(err)
				}
				for _, group := range groups {
					for _, ev := range group {
						st.SetTrace(tc.tracer.Event(0), 0)
						if _, err := eng.ApplyEvent(st, ev); err != nil {
							t.Fatal(err)
						}
					}
				}
				eng.FinishDest(st)
			})
			if allocs != 0 {
				t.Fatalf("incremental loop allocates: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestSteadyApplyEventAllocs is BenchmarkAtlasIncremental's allocs/op
// gate as a test, one subtest per benchmark variant: after one InitDest,
// cycling the restore-balanced storm script through ApplyEvent allocates
// nothing — bare, with the span tracer sampling 1 event in 64, and with
// the provenance journal recording.
func TestSteadyApplyEventAllocs(t *testing.T) {
	_, g := testGraph(t, 2000, 5)
	var events []scenario.Event
	for _, group := range stormGroups(t, g, 19) {
		events = append(events, group...)
	}
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		tracer  *trace.Tracer
		journal bool
	}{
		{"incremental", nil, false},
		{"traced64", trace.New(trace.Options{SampleEvery: 64}), false},
		{"prov", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(g, DefaultParams())
			st := eng.NewState()
			if tc.journal {
				st.SetJournal(prov.NewJournal(1 << 16))
			}
			st.SetTrace(tc.tracer.Event(0), 0)
			if err := eng.InitDest(st, dests[0]); err != nil {
				t.Fatal(err)
			}
			// A run is 256 events, so that each holds sampled events: an
			// allocation on the sampled path alone counts too.
			next := 0
			allocs := testing.AllocsPerRun(20, func() {
				for range 256 {
					st.SetTrace(tc.tracer.Event(0), 0)
					if _, err := eng.ApplyEvent(st, events[next%len(events)]); err != nil {
						t.Fatal(err)
					}
					next++
				}
			})
			if allocs != 0 {
				t.Fatalf("256 cycled events allocate %v times, want 0", allocs)
			}
		})
	}
}
