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
// and EventDiff read only per-AS history.
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

// checkJournalReplaysToRoutes is the heart of the differential why
// harness: fold every retained journal entry in append order per
// (plane, AS) — checking prev/new continuity at each step — and assert
// the folded terminal route equals the state's current route for EVERY
// (plane, AS), in both directions (a routed AS must have history; an
// AS without history must be routeless). It also asserts that an AS
// has at most one entry per (event, plane, round): the property that
// leaves the within-round append order unobservable.
func checkJournalReplaysToRoutes(t *testing.T, label string, g *Graph, j *prov.Journal, sv StateView) map[provKey]prov.Entry {
	t.Helper()
	if j.Evicted() != 0 {
		t.Fatalf("%s: journal evicted %d entries; size the test journal to retain everything", label, j.Evicted())
	}
	latest := make(map[provKey]prov.Entry, j.Len())
	for _, e := range j.Tail(j.Len()) {
		k := provKey{e.Plane, e.AS}
		pk, pd, pv := int8(kindNone), int32(0), int32(-1)
		if last, ok := latest[k]; ok {
			if last.Event == e.Event && last.Round == e.Round {
				t.Fatalf("%s: %s@%d has two entries in event %d round %d (seq %d and %d)",
					label, PlaneName(int(e.Plane)), e.AS, e.Event, e.Round, last.Seq, e.Seq)
			}
			pk, pd, pv = last.NewKind, last.NewDist, last.NewNext
		}
		if e.PrevKind != pk || (e.PrevKind != kindNone && (e.PrevDist != pd || e.PrevNext != pv)) {
			t.Fatalf("%s: %s@%d seq %d: prev (%d,%d,%d) does not continue from (%d,%d,%d)",
				label, PlaneName(int(e.Plane)), e.AS, e.Seq, e.PrevKind, e.PrevDist, e.PrevNext, pk, pd, pv)
		}
		if e.NewKind == e.PrevKind && e.NewDist == e.PrevDist && e.NewNext == e.PrevNext {
			t.Fatalf("%s: %s@%d seq %d: no-op entry %+v", label, PlaneName(int(e.Plane)), e.AS, e.Seq, e)
		}
		if e.Cause == prov.CauseNone {
			t.Fatalf("%s: seq %d carries CauseNone", label, e.Seq)
		}
		latest[k] = e
	}
	n := int32(sv.ASCount())
	for p := 0; p < planeCount; p++ {
		for a := int32(0); a < n; a++ {
			wk, wd, wv := expectedRoute(g, sv, p, a)
			e, ok := latest[provKey{int8(p), a}]
			if !ok {
				if wk != kindNone {
					t.Fatalf("%s: %s@%d holds route (%d,%d,%d) but the journal has no history for it",
						label, PlaneName(p), a, wk, wd, wv)
				}
				continue
			}
			if e.NewKind != wk || (wk != kindNone && (e.NewDist != wd || e.NewNext != wv)) {
				t.Fatalf("%s: %s@%d journal replays to (%d,%d,%d), state holds (%d,%d,%d)",
					label, PlaneName(p), a, e.NewKind, e.NewDist, e.NewNext, wk, wd, wv)
			}
		}
	}
	return latest
}

// checkChains walks Chain for a spread of ASes and asserts the walk's
// structural guarantees: head is the asked AS, every hop's entry holds
// that AS's current route, consecutive hops link via NewNext, and the
// walk terminates at the origin or a routeless terminal, untruncated.
func checkChains(t *testing.T, label string, g *Graph, j *prov.Journal, sv StateView) {
	t.Helper()
	n := int32(sv.ASCount())
	for p := 0; p < planeCount; p++ {
		for a := int32(0); a < n; a += 37 {
			chain, trunc := j.Chain(p, a)
			if trunc {
				t.Fatalf("%s: %s@%d chain truncated with zero evictions", label, PlaneName(p), a)
			}
			wk, _, _ := expectedRoute(g, sv, p, a)
			if len(chain) == 0 {
				if wk != kindNone {
					t.Fatalf("%s: %s@%d has a route but an empty chain", label, PlaneName(p), a)
				}
				continue
			}
			if chain[0].AS != a {
				t.Fatalf("%s: chain head AS %d, want %d", label, chain[0].AS, a)
			}
			for i, e := range chain {
				hk, hd, hv := expectedRoute(g, sv, p, e.AS)
				if e.NewKind != hk || (hk != kindNone && (e.NewDist != hd || e.NewNext != hv)) {
					t.Fatalf("%s: %s chain hop %d at AS %d: entry (%d,%d,%d) != current route (%d,%d,%d)",
						label, PlaneName(p), i, e.AS, e.NewKind, e.NewDist, e.NewNext, hk, hd, hv)
				}
				if i+1 < len(chain) && e.NewNext != chain[i+1].AS {
					t.Fatalf("%s: chain hop %d next %d != hop %d AS %d", label, i, e.NewNext, i+1, chain[i+1].AS)
				}
			}
			tail := chain[len(chain)-1]
			if tail.NewKind != kindNone && tail.NewNext != -2 {
				t.Fatalf("%s: %s@%d chain ends mid-path at AS %d (next %d)", label, PlaneName(p), a, tail.AS, tail.NewNext)
			}
		}
	}
}

// TestWhyChainReplaysToRoutes is the acceptance differential: on every
// scenario kind, with a journal attached to both engines, after every
// event the journal must replay — entry by entry — to the exact
// current route of every (plane, AS), and the backward chain walk must
// reconstruct each sampled AS's path to the origin from its current
// fixpoint. This is what makes `why` trustworthy: the chain is the
// route's actual history, not a plausible story.
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
				checkJournalReplaysToRoutes(t, "flat init", g, fj, ist)
				checkJournalReplaysToRoutes(t, "map init", g, mj, mist)
				for i, ev := range events {
					if _, err := flat.ApplyEvent(ist, ev); err != nil {
						t.Fatalf("event %d %v: %v", i, ev, err)
					}
					if _, err := ref.ApplyEvent(mist, ev); err != nil {
						t.Fatalf("event %d %v map: %v", i, ev, err)
					}
					checkJournalReplaysToRoutes(t, ev.String()+" flat", g, fj, ist)
					checkJournalReplaysToRoutes(t, ev.String()+" map", g, mj, mist)
				}
				checkChains(t, kind.String()+" flat", g, fj, ist)
				checkChains(t, kind.String()+" map", g, mj, mist)
			}
		})
	}
}

// TestEventDiffMatchesEventCost pins the diff API against the engine's
// own churn accounting: for non-reroot events the journal's distinct
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
				changed := j.EventChanged(j.Event())
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
	// BGP always has a route on an intact storm-end topology: the chain
	// must reach the origin.
	bgp := r1.Why.Chains[PlaneBGP]
	if len(bgp.Hops) == 0 || !bgp.Hops[len(bgp.Hops)-1].Origin {
		t.Fatalf("bgp chain does not reach the origin: %+v", bgp)
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
// three destinations, sparse and always-dense. The within-round append
// order is left unspecified, so the hash does not read it.
func TestJournalFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{600, 13, 0x33828c91c979fbd1},
		{1500, 7, 0x3d90904d5b5db599},
	} {
		tg, g := testGraph(t, tc.n, tc.seed)
		eng := NewEngine(g, DefaultParams())
		multihomed := scenario.Multihomed(g)
		h := fnv.New64a()
		var buf [8]byte
		put := func(vs ...int64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
		entries := 0
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
					for _, ev := range script.Sorted() {
						cost, err := eng.ApplyEvent(st, ev)
						if err != nil {
							t.Fatalf("%v dest %d %v: %v", kind, dest, ev, err)
						}
						reroot := int64(0)
						if cost.Reroot {
							reroot = 1
						}
						put(int64(cost.BGPRounds), int64(cost.RedRounds), int64(cost.BlueRounds), cost.Changed,
							cost.BGPLost, cost.RedLost, cost.BlueLost, cost.StampLost, reroot)
					}
					if j.Evicted() != 0 {
						t.Fatalf("journal evicted %d entries; enlarge it", j.Evicted())
					}
					for _, e := range canonicalJournal(j) {
						put(int64(e.Event), int64(e.Round), int64(e.AS), int64(e.Plane), int64(e.Cause),
							int64(e.PrevKind), int64(e.PrevDist), int64(e.PrevNext),
							int64(e.NewKind), int64(e.NewDist), int64(e.NewNext))
					}
					entries += j.Len()
				}
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("GenerateDefault(%d, %d): journal and EventCost fingerprint = %#x over %d entries, want %#x",
				tc.n, tc.seed, got, entries, tc.want)
		}
	}
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
// and always dense, at every MRAI pacing from none to 6 rounds. A
// from-scratch window without a journal settles its leaves after the
// loop (settleLeaves) while a journaled one reaches them in it, so this
// is also the deferred path's differential.
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
	// From scratch over damage: the script's events up to the end of each
	// group that moves a route (links and nodes down), then all of them
	// with the origin withdrawn.
	var pre []scenario.Event
	for k := 0; k <= len(groups)+1; k++ {
		switch {
		case k > len(groups):
			pre = append(pre, scenario.Event{Op: scenario.OpWithdraw, Node: dest})
		case k > 0:
			pre = append(pre, groups[k-1]...)
			if !slices.ContainsFunc(groups[k-1], func(ev scenario.Event) bool { return !ev.Op.Quality() }) {
				continue // the damage is what it was
			}
		}
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

// TestInitDestNeverLosesARoute pins what first-arrival counting and
// settleLeaves rely on: in a from-scratch window no AS loses a route
// once it has one. Routes do not only improve, though: when a next hop
// trades a short route for a longer one of a better kind, the ASes
// behind it are offered the longer one, so the journal must show at
// least one routed AS taking a worse route.
func TestInitDestNeverLosesARoute(t *testing.T) {
	_, g := testGraph(t, 3000, 3)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	j := prov.NewJournal(1 << 16)
	st.SetJournal(j)
	dests, err := Destinations(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	worse := 0
	for _, dest := range dests {
		if err := eng.InitDest(st, dest); err != nil {
			t.Fatal(err)
		}
		if j.Evicted() != 0 {
			t.Fatalf("dest %d: the journal evicted %d entries", dest, j.Evicted())
		}
		for _, e := range j.Tail(j.Len()) {
			if e.Event != 0 || e.PrevKind == kindNone {
				continue
			}
			if e.NewKind == kindNone {
				t.Fatalf("dest %d: %s AS %d lost its route in round %d of a from-scratch window", dest, PlaneName(int(e.Plane)), e.AS, e.Round)
			}
			if mkPref(e.NewKind, e.NewDist) > mkPref(e.PrevKind, e.PrevDist) {
				worse++
			}
		}
	}
	if worse == 0 {
		t.Fatal("no routed AS took a worse route: the claim \"routes only improve\" would hold")
	}
	t.Logf("%d changes of a routed AS were to a worse route", worse)
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
