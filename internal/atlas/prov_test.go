package atlas

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"stamp/internal/prov"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// provKey indexes journal entries by (plane, AS).
type provKey struct {
	plane int8
	as    int32
}

// expectedRoute normalizes a StateView route to the journal's shape:
// routeless (0, 0, -1), otherwise via resolved to the next hop's dense
// AS id (-2 origin preserved).
func expectedRoute(g *Graph, sv StateView, p int, a int32) (int8, int32, int32) {
	k, d, v := sv.RouteAt(p, a)
	if k == kindNone {
		return kindNone, 0, -1
	}
	if v >= 0 {
		v = int32(g.nbr[v])
	}
	return k, d, v
}

// canonicalJournal returns the journal's canonical form: its entries
// with Seq dropped, stably sorted by (Event, Plane, Round, AS). Within
// one (event, plane, round) the engine appends in an order that is
// deterministic but unspecified; no query reads it, since an AS has at
// most one entry there (checkJournalReplaysToRoutes) and Latest, Chain
// and the per-event diff read only per-AS history.
func canonicalJournal(j *prov.Journal) []prov.Entry {
	es := j.Tail(j.Len())
	for i := range es {
		es[i].Seq = 0
	}
	slices.SortStableFunc(es, func(a, b prov.Entry) int {
		return cmp.Or(cmp.Compare(a.Event, b.Event), cmp.Compare(a.Plane, b.Plane),
			cmp.Compare(a.Round, b.Round), cmp.Compare(a.AS, b.AS))
	})
	return es
}

// routeSnapshot holds every (plane, AS) route of a StateView in the
// journal's shape (expectedRoute).
type routeSnapshot [planeCount][]prov.Entry

// snapshotRoutes takes sv's routes as a routeSnapshot, each in its
// entry's New fields.
func snapshotRoutes(g *Graph, sv StateView) *routeSnapshot {
	var snap routeSnapshot
	for p := range snap {
		snap[p] = make([]prov.Entry, sv.ASCount())
		for a := range snap[p] {
			e := &snap[p][a]
			e.NewKind, e.NewDist, e.NewNext = expectedRoute(g, sv, p, int32(a))
		}
	}
	return &snap
}

// checkJournalReplaysToRoutes is the heart of the differential why
// harness: fold every retained journal entry in append order per
// (plane, AS) — checking prev/new continuity at each step, starting
// from the route the AS held after the from-scratch convergence
// (base, taken right after InitDest) — and assert the folded terminal
// route equals the state's current route for EVERY (plane, AS): an AS
// with no entry must still hold exactly its base route. It also asserts
// that an AS has at most one entry per (event, plane, round): the
// property that leaves the within-round append order unobservable.
func checkJournalReplaysToRoutes(t *testing.T, label string, g *Graph, j *prov.Journal, sv StateView, base *routeSnapshot) map[provKey]prov.Entry {
	t.Helper()
	if j.Evicted() != 0 {
		t.Fatalf("%s: journal evicted %d entries; size the test journal to retain everything", label, j.Evicted())
	}
	latest := make(map[provKey]prov.Entry, j.Len())
	for _, e := range j.Tail(j.Len()) {
		k := provKey{e.Plane, e.AS}
		from := base[e.Plane][e.AS]
		if last, ok := latest[k]; ok {
			if last.Event == e.Event && last.Round == e.Round {
				t.Fatalf("%s: %s@%d has two entries in event %d round %d (seq %d and %d)",
					label, PlaneName(int(e.Plane)), e.AS, e.Event, e.Round, last.Seq, e.Seq)
			}
			from = last
		}
		pk, pd, pv := from.NewKind, from.NewDist, from.NewNext
		if e.PrevKind != pk || (e.PrevKind != kindNone && (e.PrevDist != pd || e.PrevNext != pv)) {
			t.Fatalf("%s: %s@%d seq %d: prev (%d,%d,%d) does not continue from (%d,%d,%d)",
				label, PlaneName(int(e.Plane)), e.AS, e.Seq, e.PrevKind, e.PrevDist, e.PrevNext, pk, pd, pv)
		}
		if e.NewKind == e.PrevKind && e.NewDist == e.PrevDist && e.NewNext == e.PrevNext {
			t.Fatalf("%s: %s@%d seq %d: no-op entry %+v", label, PlaneName(int(e.Plane)), e.AS, e.Seq, e)
		}
		if e.Cause == 0 {
			t.Fatalf("%s: seq %d carries the zero Cause", label, e.Seq)
		}
		latest[k] = e
	}
	n := int32(sv.ASCount())
	for p := 0; p < planeCount; p++ {
		for a := int32(0); a < n; a++ {
			wk, wd, wv := expectedRoute(g, sv, p, a)
			e, ok := latest[provKey{int8(p), a}]
			if !ok {
				e = base[p][a]
			}
			if e.NewKind != wk || (wk != kindNone && (e.NewDist != wd || e.NewNext != wv)) {
				t.Fatalf("%s: %s@%d journal (entry %v) replays to (%d,%d,%d), state holds (%d,%d,%d)",
					label, PlaneName(p), a, ok, e.NewKind, e.NewDist, e.NewNext, wk, wd, wv)
			}
		}
	}
	return latest
}

// checkChains walks State.Why for a spread of ASes and asserts the
// walk's structural guarantees: head is the asked AS, every hop holds
// that AS's current route, consecutive hops link via Next, a hop is a
// journal entry's exactly when the journal retains one for it, a held
// hop's AS still holds the route base took after InitDest, and the walk
// ends untruncated at the origin or, for a routeless AS, at once.
func checkChains(t *testing.T, label string, g *Graph, st *State, base *routeSnapshot) {
	t.Helper()
	n := int32(st.ASCount())
	for a := int32(0); a < n; a += 37 {
		rep := st.Why(topology.ASN(a))
		for p, c := range rep.Chains {
			if c.Truncated {
				t.Fatalf("%s: %s@%d chain truncated", label, PlaneName(p), a)
			}
			cur := a
			for i, h := range c.Hops {
				k, d, v := expectedRoute(g, st, p, cur)
				next, origin := hopTarget(g, v)
				if h.AS != g.OriginalASN(topology.ASN(cur)) || h.Kind != KindName(k) ||
					(k != kindNone && (h.Dist != d || h.Next != next || h.Origin != origin)) {
					t.Fatalf("%s: %s@%d hop %d %+v, want AS %d holding (%d,%d,%d)", label, PlaneName(p), a, i, h, cur, k, d, v)
				}
				_, entry := st.j.Latest(p, cur)
				if held := h.Cause == CauseHeld; held == entry {
					t.Fatalf("%s: %s@%d hop %d at AS %d: cause %q, journal entry retained %v", label, PlaneName(p), a, i, cur, h.Cause, entry)
				}
				if b := base[p][cur]; h.Cause == CauseHeld && (b.NewKind != k || b.NewDist != d || b.NewNext != v) {
					t.Fatalf("%s: %s@%d held hop at AS %d holds (%d,%d,%d), not its post-InitDest route (%d,%d,%d)",
						label, PlaneName(p), a, cur, k, d, v, b.NewKind, b.NewDist, b.NewNext)
				}
				if i+1 < len(c.Hops) {
					cur = v
				}
			}
			if k, _, v := expectedRoute(g, st, p, cur); k != kindNone && v != -2 {
				t.Fatalf("%s: %s@%d chain ends mid-path at AS %d (next %d)", label, PlaneName(p), a, cur, v)
			}
			if k, _, _ := expectedRoute(g, st, p, a); k != kindNone && len(c.Hops) == 0 {
				t.Fatalf("%s: %s@%d has a route but an empty chain", label, PlaneName(p), a)
			}
		}
	}
}

// TestWhyChainReplaysToRoutes is the acceptance differential: on every
// scenario kind, with a journal attached to both engines, after every
// event the journal must replay — entry by entry, from the routes
// InitDest left — to the exact current route of every (plane, AS), and
// State.Why must walk each sampled AS's path to the origin from its
// current fixpoint. This is what makes `why` trustworthy: the chain is
// the route's actual history, not a plausible story.
func TestWhyChainReplaysToRoutes(t *testing.T) {
	tg, g := testGraph(t, 300, 5)
	flat := NewEngine(g, DefaultParams())
	ref := NewMapEngine(g, DefaultParams())
	ist := flat.NewState()
	mist := ref.NewState()
	fj := prov.NewJournal(1 << 17)
	mj := prov.NewJournal(1 << 17)
	ist.SetJournal(fj)
	mist.SetJournal(mj)
	multihomed := scenario.Multihomed(g)
	for _, kind := range []scenario.Kind{
		scenario.SingleLink, scenario.TwoLinksApart, scenario.TwoLinksShared,
		scenario.NodeFailure, scenario.LinkFlap, scenario.FlapStorm,
		scenario.PrefixWithdraw, scenario.LatencyBrownout,
		scenario.GrayFailure, scenario.OscillatingCongestion,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			events := script.Sorted()
			var dests []topology.ASN
			if kind == scenario.PrefixWithdraw {
				dests = []topology.ASN{script.Dest}
			} else {
				dests, err = Destinations(g, 2, 29)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, dest := range dests {
				if err := flat.InitDest(ist, dest); err != nil {
					t.Fatal(err)
				}
				if err := ref.InitDest(mist, dest); err != nil {
					t.Fatal(err)
				}
				if fj.Appends() != 0 || mj.Appends() != 0 {
					t.Fatalf("InitDest journaled %d flat and %d map entries, want none", fj.Appends(), mj.Appends())
				}
				fbase, mbase := snapshotRoutes(g, ist), snapshotRoutes(g, mist)
				for i, ev := range events {
					if _, err := flat.ApplyEvent(ist, ev); err != nil {
						t.Fatalf("event %d %v: %v", i, ev, err)
					}
					if _, err := ref.ApplyEvent(mist, ev); err != nil {
						t.Fatalf("event %d %v map: %v", i, ev, err)
					}
					checkJournalReplaysToRoutes(t, ev.String()+" flat", g, fj, ist, fbase)
					checkJournalReplaysToRoutes(t, ev.String()+" map", g, mj, mist, mbase)
				}
				checkChains(t, kind.String()+" flat", g, ist, fbase)
			}
		})
	}
}

// eventChanged counts the distinct (plane, AS) pairs the journal retains
// entries for in one event: the journal-side view of EventCost.Changed.
func eventChanged(j *prov.Journal, event uint64) int {
	changed := map[[2]int32]bool{}
	for _, e := range j.Tail(j.Len()) {
		if e.Event == event {
			changed[[2]int32{int32(e.Plane), e.AS}] = true
		}
	}
	return len(changed)
}

// TestEventDiffMatchesEventCost pins the journal's per-event diff against
// the engine's own churn accounting: for non-reroot events the journal's distinct
// (plane, AS) count IS EventCost.Changed; reroot windows additionally
// journal the wholesale clears the engine's counter never sees, so
// there the journal dominates.
func TestEventDiffMatchesEventCost(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	eng := NewEngine(g, DefaultParams())
	groups := stormGroups(t, g, 19)
	dests, err := Destinations(g, 2, 41)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.NewState()
	j := prov.NewJournal(1 << 17)
	st.SetJournal(j)
	for _, dest := range dests {
		if err := eng.InitDest(st, dest); err != nil {
			t.Fatal(err)
		}
		for _, group := range groups {
			for _, ev := range group {
				cost, err := eng.ApplyEvent(st, ev)
				if err != nil {
					t.Fatal(err)
				}
				changed := eventChanged(j, j.Event())
				if cost.Reroot {
					if int64(changed) < cost.Changed {
						t.Fatalf("%v (reroot): journal %d distinct changes < engine %d", ev, changed, cost.Changed)
					}
					continue
				}
				if int64(changed) != cost.Changed {
					t.Fatalf("%v: journal %d distinct changes, engine counted %d", ev, changed, cost.Changed)
				}
			}
		}
	}
}

// TestReplayWhy: the -why surface end to end — auto and explicit
// specs, byte-identical across worker counts, and rejected when the
// requested destination was not sampled.
func TestReplayWhy(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	run := func(workers int, why *WhySpec) *ReplayReport {
		t.Helper()
		rep, err := Replay(ReplayOptions{
			Graph: g, Scenario: scenario.FlapStorm,
			Dests: 4, Seed: 7, Repeat: 2, Workers: workers, Why: why,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1 := run(1, &WhySpec{Auto: true})
	r8 := run(8, &WhySpec{Auto: true})
	j1, _ := json.Marshal(r1)
	j8, _ := json.Marshal(r8)
	if string(j1) != string(j8) {
		t.Fatal("-why auto report differs between -workers 1 and 8")
	}
	if r1.Why == nil || len(r1.Why.Chains) != PlaneCount {
		t.Fatalf("why report missing or short: %+v", r1.Why)
	}
	if r1.Why.Appends == 0 {
		t.Fatal("why journal recorded nothing over a flap storm")
	}
	// BGP always has a route on an intact storm-end topology, and every
	// routed chain reaches the origin untruncated.
	if len(r1.Why.Chains[PlaneBGP].Hops) == 0 {
		t.Fatalf("bgp chain is empty: %+v", r1.Why.Chains[PlaneBGP])
	}
	for _, c := range r1.Why.Chains {
		if n := len(c.Hops); c.Truncated || n > 0 && c.Hops[n-1].Kind != KindName(kindNone) && !c.Hops[n-1].Origin {
			t.Fatalf("%s chain does not reach the origin: %+v", c.Plane, c)
		}
	}
	// Explicit spec naming the auto pair reproduces the same chains.
	exp := run(1, &WhySpec{Dest: r1.Why.Dest, AS: r1.Why.AS})
	je, _ := json.Marshal(exp.Why)
	jw, _ := json.Marshal(r1.Why)
	if string(je) != string(jw) {
		t.Fatalf("explicit why differs from auto:\n%s\n%s", je, jw)
	}
	// A destination outside the sample is an error, not a silent empty.
	if _, err := Replay(ReplayOptions{
		Graph: g, Scenario: scenario.FlapStorm,
		Dests: 4, Seed: 7, Why: &WhySpec{Dest: -1, AS: 0},
	}); err == nil {
		t.Fatal("unsampled -why destination must error")
	}
}

// TestJournalFingerprintPinned pins the flat engine's journal in
// canonical form (canonicalJournal: every field but Seq, entries sorted
// within their round) and every EventCost, for every scenario kind at
// three destinations, sparse and always-dense, as one golden row per
// (n, kind, dest, cap, event) in testdata/journal.golden: the event's
// EventCost fields (event 0, the InitDest, holds its three planes'
// InitRounds in the rounds columns and zeros elsewhere), its canonical
// entry count and an FNV-64a of its canonical entries. The within-round
// append order is left unspecified, so no column reads it. Regenerate
// with -update.
func TestJournalFingerprintPinned(t *testing.T) {
	var rows []string
	for _, tc := range []struct {
		n    int
		seed int64
	}{{600, 13}, {1500, 7}} {
		tg, g := testGraph(t, tc.n, tc.seed)
		eng := NewEngine(g, DefaultParams())
		multihomed := scenario.Multihomed(g)
		for _, kind := range allKinds {
			script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			for _, dest := range kindDests(t, g, script, kind, 3) {
				for _, c := range []int{-1, 0} {
					st, j := withCap(eng, c), prov.NewJournal(1<<18)
					st.SetJournal(j)
					if err := eng.InitDest(st, dest); err != nil {
						t.Fatal(err)
					}
					init := eng.FinishDest(st)
					costs := []EventCost{{BGPRounds: init.BGP.InitRounds, RedRounds: init.Red.InitRounds, BlueRounds: init.Blue.InitRounds}}
					for _, ev := range script.Sorted() {
						cost, err := eng.ApplyEvent(st, ev)
						if err != nil {
							t.Fatalf("%v dest %d %v: %v", kind, dest, ev, err)
						}
						costs = append(costs, cost)
					}
					if j.Evicted() != 0 {
						t.Fatalf("journal evicted %d entries; enlarge it", j.Evicted())
					}
					canon := canonicalJournal(j)
					for ev, cost := range costs {
						rows = append(rows, journalRow(tc.n, kind, dest, c, ev, cost, canon))
					}
				}
			}
		}
	}
	checkGolden(t, "testdata/journal.golden",
		"n\tkind\tdest\tcap\tevent\tbgp_rounds\tred_rounds\tblue_rounds\tchanged\tbgp_lost\tred_lost\tblue_lost\tstamp_lost\treroot\tentries\tfnv64", rows)
}

// journalRow renders one golden row of TestJournalFingerprintPinned:
// event ev's cost and its entries in canon, counted and hashed.
func journalRow(n int, kind scenario.Kind, dest topology.ASN, c, ev int, cost EventCost, canon []prov.Entry) string {
	h := fnv.New64a()
	var buf [8]byte
	count := 0
	for _, e := range canon {
		if e.Event != uint64(ev) {
			continue
		}
		count++
		for _, v := range []int64{int64(e.Round), int64(e.AS), int64(e.Plane), int64(e.Cause),
			int64(e.PrevKind), int64(e.PrevDist), int64(e.PrevNext),
			int64(e.NewKind), int64(e.NewDist), int64(e.NewNext)} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	reroot := 0
	if cost.Reroot {
		reroot = 1
	}
	return fmt.Sprintf("%d\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%016x",
		n, kind, dest, c, ev, cost.BGPRounds, cost.RedRounds, cost.BlueRounds, cost.Changed,
		cost.BGPLost, cost.RedLost, cost.BlueLost, cost.StampLost, reroot, count, h.Sum64())
}

func TestParseWhy(t *testing.T) {
	if spec, err := ParseWhy("auto"); err != nil || !spec.Auto {
		t.Fatalf("ParseWhy(auto) = %+v, %v", spec, err)
	}
	spec, err := ParseWhy("17:4242")
	if err != nil || spec.Dest != 17 || spec.AS != 4242 || spec.Auto {
		t.Fatalf("ParseWhy(17:4242) = %+v, %v", spec, err)
	}
	for _, bad := range []string{"", "17", "x:4", "17:y", "17:"} {
		if _, err := ParseWhy(bad); err == nil {
			t.Errorf("ParseWhy(%q) accepted", bad)
		}
	}
}

// TestJournalDoesNotChangeOutcomes: the journal observes the engine and
// never steers it. With and without one attached, the engine must agree
// on everything but the journal: outcomes with their round counts,
// every EventCost, the routes and advertisements, the window sequence
// and each retained window's touched sets, for every kind Run and
// Replay accept, on the grouped driver, on InitDest plus an event
// stream, and on ConvergeScratch over the script's first k groups for
// every k and over the whole script with the origin withdrawn, sparse
// and always dense, at every MRAI pacing from none to 6 rounds. Both
// states take the one from-scratch path, which
// TestFlatMatchesMapEngineAtScale holds to the map engine.
func TestJournalDoesNotChangeOutcomes(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{{400, 11}, {3000, 3}} {
		tg, g := testGraph(t, tc.n, tc.seed)
		multihomed := scenario.Multihomed(g)
		dests, err := Destinations(g, 2, 31)
		if err != nil {
			t.Fatal(err)
		}
		for _, params := range []Params{DefaultParams(), {MRAIRounds: NoMRAI}, {MRAIRounds: 1}, {MRAIRounds: 3}, {MRAIRounds: 4}, {MRAIRounds: 6}} {
			eng := NewEngine(g, params)
			for _, kind := range allKinds {
				if kind == scenario.PrefixWithdraw {
					continue // Run and Replay refuse it
				}
				script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(21)))
				if err != nil {
					t.Fatal(err)
				}
				for _, dest := range dests {
					for _, c := range []int{-1, 0} {
						name := fmt.Sprintf("N=%d MRAI %d %v dest %d %s", tc.n, params.MRAIRounds, kind, dest, capName(c))
						checkJournalOblivious(t, eng, name, dest, script, c)
					}
				}
			}
		}
	}
}

// checkJournalOblivious runs script at dest on a bare state and a
// journaled one, both with touched-list capacity c, and fails at the
// first thing they disagree on.
func checkJournalOblivious(t *testing.T, eng *Engine, name string, dest topology.ASN, script scenario.Script, c int) {
	t.Helper()
	groups := groupEvents(script)
	bare, seen := withCap(eng, c), withCap(eng, c)
	seen.SetJournal(prov.NewJournal(1 << 12))
	ob, err := eng.ConvergeDest(bare, dest, groups)
	if err != nil {
		t.Fatal(err)
	}
	oj, err := eng.ConvergeDest(seen, dest, groups)
	if err != nil {
		t.Fatal(err)
	}
	if ob != oj {
		t.Fatalf("%s ConvergeDest: without a journal %+v, with %+v", name, ob, oj)
	}
	mustSameState(t, name+" ConvergeDest", bare, seen)
	for _, st := range []*State{bare, seen} {
		if err := eng.InitDest(st, dest); err != nil {
			t.Fatal(err)
		}
	}
	mustSameState(t, name+" InitDest", bare, seen)
	for i, ev := range script.Sorted() {
		cb, err := eng.ApplyEvent(bare, ev)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := eng.ApplyEvent(seen, ev)
		if err != nil {
			t.Fatal(err)
		}
		if cb != cs {
			t.Fatalf("%s event %d %v: EventCost without a journal %+v, with %+v", name, i, ev, cb, cs)
		}
		mustSameState(t, fmt.Sprintf("%s event %d %v", name, i, ev), bare, seen)
	}
	if fb, fs := eng.FinishDest(bare), eng.FinishDest(seen); fb != fs {
		t.Fatalf("%s FinishDest: without a journal %+v, with %+v", name, fb, fs)
	}
	if c >= 0 {
		return // a from-scratch window runs dense at any list capacity
	}
	for _, pre := range damagePrefixes(groups, dest) {
		for _, st := range []*State{bare, seen} {
			if err := eng.ConvergeScratch(st, dest, pre); err != nil {
				t.Fatal(err)
			}
		}
		if fb, fs := eng.FinishDest(bare), eng.FinishDest(seen); fb != fs {
			t.Fatalf("%s ConvergeScratch over %d events: without a journal %+v, with %+v", name, len(pre), fb, fs)
		}
		mustSameState(t, fmt.Sprintf("%s ConvergeScratch over %d events", name, len(pre)), bare, seen)
	}
}

// TestInitDestNeverLosesARoute pins a property of from-scratch
// convergence, which the map engine checks in every from-scratch window
// it runs: no AS loses a route once it has one. Routes do not only
// improve, though: when a next hop trades a short route for a longer one
// of a better kind, the ASes behind it are offered the longer one, so at
// least one routed AS must take a worse route.
func TestInitDestNeverLosesARoute(t *testing.T) {
	_, g := testGraph(t, 3000, 3)
	ref := NewMapEngine(g, DefaultParams())
	st := ref.NewState()
	dests, err := Destinations(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, dest := range dests {
		if err := ref.InitDest(st, dest); err != nil {
			t.Fatal(err)
		}
	}
	if st.worse == 0 {
		t.Fatal("no routed AS took a worse route: the claim \"routes only improve\" would hold")
	}
	t.Logf("%d changes of a routed AS were to a worse route", st.worse)
}

// mustSameState fails unless a and b are at the same window, hold the
// same routes and advertisements on every plane, and report the same
// touched set (or the same refusal) for each window they retain.
func mustSameState(t *testing.T, name string, a, b *State) {
	t.Helper()
	if a.Windows() != b.Windows() {
		t.Fatalf("%s: window %d vs %d", name, a.Windows(), b.Windows())
	}
	for p := 0; p < planeCount; p++ {
		for seq := a.Windows() - 1; seq <= a.Windows(); seq++ {
			ta, oka := a.Touched(seq, p)
			tb, okb := b.Touched(seq, p)
			if oka != okb || !slices.Equal(slices.Sorted(slices.Values(ta)), slices.Sorted(slices.Values(tb))) {
				t.Fatalf("%s: window %d %s touched %v (%v) vs %v (%v)", name, seq, PlaneName(p), ta, oka, tb, okb)
			}
		}
		ka, da, na := snapshotPlane(a, p)
		kb, db, nb := snapshotPlane(b, p)
		if !slices.Equal(ka, kb) || !slices.Equal(da, db) || !slices.Equal(na, nb) {
			t.Fatalf("%s: %s routes differ", name, PlaneName(p))
		}
		for as := range a.adv[p] {
			if a.adv[p][as] != b.adv[p][as] {
				t.Fatalf("%s: %s AS %d advertises %#x vs %#x", name, PlaneName(p), as, a.adv[p][as], b.adv[p][as])
			}
		}
	}
}

// snapshotPlane copies plane p's routes out of st with SnapshotRoutes.
func snapshotPlane(st *State, p int) (kind []int8, dist, next []int32) {
	n := st.g.Len()
	kind, dist, next = make([]int8, n), make([]int32, n), make([]int32, n)
	st.SnapshotRoutes(p, kind, dist, next)
	return kind, dist, next
}
