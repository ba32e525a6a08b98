package atlas

import (
	"slices"
	"testing"

	"stamp/internal/scenario"
	"stamp/internal/trace"
)

// TestApplyEventSpanTree pins the causal shape of one traced event:
// an atlas.apply_event root, with cascade and three plane spans as its
// children, the plane spans carrying seed-frontier, round, and
// per-round-churn annotations.
func TestApplyEventSpanTree(t *testing.T) {
	_, g := testGraph(t, 200, 5)
	tr := trace.New(trace.Options{Shards: 1, BufferPerShard: 256})
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	st.SetTrace(tr.Event(0), 0)
	if err := eng.InitDest(st, dests[0]); err != nil {
		t.Fatal(err)
	}
	groups := stormGroups(t, g, 19)
	ev := groups[0][0]
	st.SetTrace(tr.Event(0), 0)
	if _, err := eng.ApplyEvent(st, ev); err != nil {
		t.Fatal(err)
	}

	recs := tr.Snapshot()
	byName := map[string][]trace.Record{}
	for _, r := range recs {
		byName[r.Name] = append(byName[r.Name], r)
	}
	roots := byName["atlas.apply_event"]
	if len(roots) != 1 {
		t.Fatalf("got %d apply_event roots, want 1", len(roots))
	}
	root := roots[0]
	if root.Parent != 0 {
		t.Fatalf("apply_event has parent %d, want root", root.Parent)
	}
	argOf := func(r trace.Record, key string) (int64, bool) {
		for i := int32(0); i < r.NArgs; i++ {
			if r.Args[i].Key == key {
				return r.Args[i].Val, true
			}
		}
		return 0, false
	}
	strOf := func(r trace.Record, key string) (string, bool) {
		for i := int32(0); i < r.NStrs; i++ {
			if r.Strs[i].Key == key {
				return r.Strs[i].Val, true
			}
		}
		return "", false
	}
	if op, ok := strOf(root, "op"); !ok || op != ev.Op.String() {
		t.Fatalf("root op = %q, want %q", op, ev.Op.String())
	}
	if _, ok := argOf(root, "rounds"); !ok {
		t.Fatal("root missing rounds annotation")
	}

	// The event window's spans: every plane converges once under the
	// root, and at least one non-reroot plane cascaded first.
	planes := []string{"atlas.plane_bgp", "atlas.plane_red", "atlas.plane_blue"}
	eventPlanes := 0
	for _, name := range planes {
		for _, r := range byName[name] {
			if r.Trace != root.Trace || r.Parent != root.Span {
				continue // init_dest's plane spans belong to another trace
			}
			eventPlanes++
			if _, ok := argOf(r, "rounds"); !ok {
				t.Fatalf("%s missing rounds", name)
			}
			if _, ok := argOf(r, "seed_frontier"); !ok {
				t.Fatalf("%s missing seed_frontier", name)
			}
			if rounds, _ := argOf(r, "rounds"); rounds > 0 {
				if _, ok := argOf(r, "round1_changed"); !ok {
					t.Fatalf("%s converged %d rounds without round1_changed", name, rounds)
				}
			}
		}
	}
	if eventPlanes != 3 {
		t.Fatalf("got %d plane spans under apply_event, want 3", eventPlanes)
	}
	cascades := 0
	for _, r := range byName["atlas.cascade"] {
		if r.Trace == root.Trace && r.Parent == root.Span {
			cascades++
		}
	}
	if cascades == 0 {
		t.Fatal("no cascade span under apply_event")
	}

	// And the InitDest trace exists separately with its own root.
	if len(byName["atlas.init_dest"]) != 1 {
		t.Fatalf("got %d init_dest roots, want 1", len(byName["atlas.init_dest"]))
	}
}

// TestExternalTraceParenting pins the serve-style handoff: spans from
// an ApplyEvent armed with the caller's context nest under the caller's
// span and inherit its trace id; the call consumes the context, so an
// unarmed call records nothing.
func TestExternalTraceParenting(t *testing.T) {
	_, g := testGraph(t, 200, 5)
	tr := trace.New(trace.Options{Shards: 1, BufferPerShard: 256})
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitDest(st, dests[0]); err != nil {
		t.Fatal(err)
	}
	groups := stormGroups(t, g, 19)

	ctx := tr.Event(0)
	ingest := ctx.Start("serve.apply_event")
	st.SetTrace(ctx, ingest.ID())
	if _, err := eng.ApplyEvent(st, groups[0][0]); err != nil {
		t.Fatal(err)
	}
	ingest.End()
	if _, err := eng.ApplyEvent(st, groups[0][1]); err != nil {
		t.Fatal(err)
	}

	var root *trace.Record
	recs := tr.Snapshot()
	for i := range recs {
		if recs[i].Name == "serve.apply_event" {
			root = &recs[i]
		}
	}
	if root == nil {
		t.Fatal("no serve.apply_event span")
	}
	applies := 0
	for _, r := range recs {
		if r.Name != "atlas.apply_event" {
			continue
		}
		applies++
		if r.Parent != root.Span || r.Trace != root.Trace {
			t.Fatalf("atlas.apply_event parent/trace = %d/%d, want %d/%d",
				r.Parent, r.Trace, root.Span, root.Trace)
		}
	}
	// Only the armed ApplyEvent recorded; the next, unarmed one is
	// silent.
	if applies != 1 {
		t.Fatalf("got %d atlas.apply_event spans, want 1", applies)
	}
}

// TestRefusedCallConsumesTrace pins that a refused engine call consumes
// the armed context too: ApplyEvent on a never-converged state records
// nothing, and the InitDest after it, unarmed, records nothing either.
func TestRefusedCallConsumesTrace(t *testing.T) {
	_, g := testGraph(t, 200, 5)
	tr := trace.New(trace.Options{Shards: 1, BufferPerShard: 256})
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	st.SetTrace(tr.Event(0), 0)
	if _, err := eng.ApplyEvent(st, stormGroups(t, g, 19)[0][0]); err == nil {
		t.Fatal("ApplyEvent on a never-converged state succeeded")
	}
	if err := eng.InitDest(st, dests[0]); err != nil {
		t.Fatal(err)
	}
	if recs := tr.Snapshot(); len(recs) != 0 {
		t.Fatalf("refused call left its context armed: %d spans recorded", len(recs))
	}
}

// TestReplayTracerSideEffectOnly pins that attaching a tracer to Replay
// changes nothing about the report.
func TestReplayTracerSideEffectOnly(t *testing.T) {
	_, g := testGraph(t, 200, 5)
	base := ReplayOptions{Graph: g, Scenario: scenario.FlapStorm, Dests: 4, Seed: 7, Workers: 2}
	plain, err := Replay(base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Tracer = trace.New(trace.Options{Shards: 4, SampleEvery: 2})
	got, err := Replay(traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PerEvent) != len(plain.PerEvent) || got.StampLostASRounds != plain.StampLostASRounds ||
		got.BGP != plain.BGP || got.Red != plain.Red || got.Blue != plain.Blue {
		t.Fatal("tracer changed the replay report")
	}
	if _, sampled := traced.Tracer.Traces(); sampled == 0 {
		t.Fatal("replay recorded no traces")
	}
	if len(traced.Tracer.Snapshot()) == 0 {
		t.Fatal("replay tracer retained no spans")
	}
}

// TestInitDestPlaneSpanArgs pins what a traced from-scratch
// convergence records: its leaves settle after the plane spans end, so
// each initial plane span carries its seed frontier and its round
// count, equal to the plane's InitRounds, and no changed count, whole or
// per round. Tracing only observes: a traced InitDest reports the
// outcome and Visited of a bare one.
func TestInitDestPlaneSpanArgs(t *testing.T) {
	for _, c := range []struct {
		n      int
		params Params
	}{{2000, DefaultParams()}, {60, Params{MRAIRounds: NoMRAI}}} {
		params := c.params
		_, g := testGraph(t, c.n, 7)
		dests, err := Destinations(g, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(trace.Options{Shards: 1, BufferPerShard: 64})
		eng := NewEngine(g, params)
		st, bare := eng.NewState(), eng.NewState()
		st.SetTrace(tr.Event(0), 0)
		for _, s := range []*State{st, bare} {
			if err := eng.InitDest(s, dests[0]); err != nil {
				t.Fatal(err)
			}
		}
		out := eng.FinishDest(st)
		if ob := eng.FinishDest(bare); out != ob || st.Visited() != bare.Visited() {
			t.Fatalf("MRAI %d: traced InitDest %+v visited %d, bare %+v visited %d",
				params.MRAIRounds, out, st.Visited(), ob, bare.Visited())
		}
		planes := planesOf(&out)
		seen := 0
		for _, r := range tr.Snapshot() {
			p := slices.Index(planeSpanNames[:], r.Name)
			if p < 0 {
				continue
			}
			seen++
			keys := map[string]int64{}
			for i := int32(0); i < r.NArgs; i++ {
				keys[r.Args[i].Key] = r.Args[i].Val
			}
			if _, ok := keys["seed_frontier"]; !ok || len(keys) != 2 || keys["rounds"] != int64(planes[p].InitRounds) {
				t.Fatalf("MRAI %d %s: args %v, want seed_frontier and rounds = InitRounds %d only",
					params.MRAIRounds, r.Name, keys, planes[p].InitRounds)
			}
		}
		if seen != planeCount {
			t.Fatalf("MRAI %d: got %d plane spans, want %d", params.MRAIRounds, seen, planeCount)
		}
	}
}
