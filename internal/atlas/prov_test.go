package atlas

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math/rand"
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

// checkJournalReplaysToRoutes is the heart of the differential why
// harness: fold every retained journal entry in append order per
// (plane, AS) — checking prev/new continuity at each step — and assert
// the folded terminal route equals the state's current route for EVERY
// (plane, AS), in both directions (a routed AS must have history; an
// AS without history must be routeless).
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

// TestJournalFingerprintPinned pins the flat engine's most order-
// sensitive outputs byte for byte: every journal entry (its sequence
// number is the within-round position `why` prints) and every EventCost,
// for every scenario kind at three destinations, sparse and always-dense.
// MapEngine cannot serve as the order oracle here — its journal orders
// some rounds differently even where the routes agree — so the values
// are the ones the unfiltered frontier (every reached AS rescanning its
// row) produced.
func TestJournalFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{600, 13, 0xfaa8983386207399},
		{1500, 7, 0xa59770935ac53e1d},
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
					for _, e := range j.Tail(j.Len()) {
						put(int64(e.Seq), int64(e.Event), int64(e.Round), int64(e.AS), int64(e.Plane), int64(e.Cause),
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
