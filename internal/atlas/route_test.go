package atlas

import (
	"math/rand"
	"testing"

	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// TestRoutePrefOrder: the preference word orders routes exactly as the
// Gao-Rexford comparison does, kind first and then path length, with no
// route last; and the offer arithmetic recompute and publish do on the
// word gives the route a neighbor would build from kind and length.
func TestRoutePrefOrder(t *testing.T) {
	type kd struct {
		kind int8
		dist int32
		pref int32
	}
	var rs []kd
	dists := []int32{0, 1, 2, distMask - 1}
	for _, k := range []int8{kindCustomer, kindPeer, kindProvider} {
		for _, d := range dists {
			rs = append(rs, kd{k, d, mkPref(k, d)})
		}
	}
	none := kd{kind: 4, pref: prefNone} // ranks after every kind
	rs = append(rs, none)
	for _, x := range rs {
		for _, y := range rs {
			lex := x.kind < y.kind || (x.kind == y.kind && x.dist < y.dist)
			if got := x.pref < y.pref; got != lex {
				t.Fatalf("(kind %d, dist %d) < (kind %d, dist %d): pref says %v, lexicographic %v",
					x.kind, x.dist, y.kind, y.dist, got, lex)
			}
		}
	}
	if kindOf(prefNone) != kindNone {
		t.Fatalf("kindOf(prefNone) = %d, want kindNone", kindOf(prefNone))
	}
	if k, d, v := noRoute.split(); k != kindNone || d != 0 || v != -1 {
		t.Fatalf("noRoute splits to (%d, %d, %d), want (0, 0, -1)", k, d, v)
	}
	for _, x := range rs[:len(rs)-1] {
		if k, d := kindOf(x.pref), distOf(x.pref); k != x.kind || d != x.dist {
			t.Fatalf("pref of (kind %d, dist %d) splits to (%d, %d)", x.kind, x.dist, k, d)
		}
		wantCust, wantPeer := prefNone, prefNone
		if x.kind == kindCustomer {
			wantCust, wantPeer = mkPref(kindCustomer, x.dist+1), mkPref(kindPeer, x.dist+1)
		}
		if got := custOffer(x.pref); got != wantCust {
			t.Fatalf("custOffer(kind %d, dist %d) = %#x, want %#x", x.kind, x.dist, got, wantCust)
		}
		if got := peerOffer(x.pref); got != wantPeer {
			t.Fatalf("peerOffer(kind %d, dist %d) = %#x, want %#x", x.kind, x.dist, got, wantPeer)
		}
		if got, want := provOffer(x.pref), mkPref(kindProvider, x.dist+1); got != want {
			t.Fatalf("provOffer(kind %d, dist %d) = %#x, want %#x", x.kind, x.dist, got, want)
		}
	}
	for _, offer := range []func(int32) int32{custOffer, peerOffer, provOffer} {
		if got := offer(prefNone); got != prefNone {
			t.Fatalf("an offer of no route is %#x, want prefNone", got)
		}
	}
}

// TestBitsetMatchesBoolSlice drives bitsets of several sizes, word
// boundaries included, through random set, unset and put calls against
// a bool slice, and compares every index after each step.
func TestBitsetMatchesBoolSlice(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 1000} {
		b := newBitset(n)
		model := make([]bool, n)
		for step := 0; step < 4*n+16; step++ {
			i := int32(rnd.Intn(n))
			switch rnd.Intn(3) {
			case 0:
				b.set(i)
				model[i] = true
			case 1:
				b.unset(i)
				model[i] = false
			default:
				v := rnd.Intn(2) == 0
				b.put(i, v)
				model[i] = v
			}
			for j, want := range model {
				if got := b.has(int32(j)); got != want {
					t.Fatalf("n=%d step %d: has(%d) = %v, want %v", n, step, j, got, want)
				}
			}
		}
	}
}

// TestRoutelessIsCanonical: after every applied event of a flap storm
// followed by a node failure, every routeless AS holds exactly noRoute,
// so route equality is struct equality, and every AS advertises the
// preference of the route it holds (prefNone when it has none): a
// fixpoint has nothing left to publish.
func TestRoutelessIsCanonical(t *testing.T) {
	tg, g := testGraph(t, 1_500, 3)
	multihomed := scenario.Multihomed(g)
	var events []scenario.Event
	for i, kind := range []scenario.Kind{scenario.FlapStorm, scenario.NodeFailure} {
		script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(int64(40+i))))
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, script.Sorted()...)
	}
	dests, err := Destinations(g, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	check := func(label string) {
		t.Helper()
		for p := 0; p < planeCount; p++ {
			for a, r := range st.cur[p] {
				if r.pref == prefNone && r != noRoute {
					t.Fatalf("%s: %s@%d routeless as %+v, want noRoute", label, PlaneName(p), a, r)
				}
				if adv := st.adv[p][a]; adv != r.pref {
					t.Fatalf("%s: %s@%d advertises %#x but holds %#x", label, PlaneName(p), a, adv, r.pref)
				}
			}
		}
	}
	for _, dest := range dests {
		if err := eng.InitDest(st, dest); err != nil {
			t.Fatal(err)
		}
		check("init")
		for i, ev := range events {
			if ev.Op == scenario.OpFailNode && ev.Node == dest {
				continue
			}
			if _, err := eng.ApplyEvent(st, ev); err != nil {
				t.Fatalf("dest %d event %d %v: %v", dest, i, ev, err)
			}
			check(ev.String())
		}
	}
}

// TestASCountGuard: the engine refuses a graph whose path lengths could
// reach the kind bits of a route's preference word.
func TestASCountGuard(t *testing.T) {
	for _, n := range []int64{0, 1, 50_000, 1<<kindShift - 1} {
		if err := checkASCount(n); err != nil {
			t.Fatalf("%d ASes refused: %v", n, err)
		}
	}
	for _, n := range []int64{1 << kindShift, 1<<31 - 1} {
		if checkASCount(n) == nil {
			t.Fatalf("%d ASes accepted", n)
		}
	}
	// freeze runs the guard before it allocates anything n-sized.
	if _, err := (&builder{n: 1 << kindShift}).freeze(); err == nil {
		t.Fatal("freeze accepted 1<<28 ASes")
	}
}

// checkCustUp fails when custUp[p] is not exactly the set of ASes whose
// plane-p advertisement is a customer route.
func checkCustUp(t testing.TB, label string, st *State) {
	t.Helper()
	for p := 0; p < planeCount; p++ {
		for a, pref := range st.adv[p] {
			if got, want := st.custUp[p].has(int32(a)), kindOf(pref) == kindCustomer; got != want {
				t.Fatalf("%s: plane %d AS %d: custUp %v, advertised kind %d", label, p, a, got, kindOf(pref))
			}
		}
	}
}

// TestCustUpMatchesAdvertisements: recompute's customer and peer scans
// skip every neighbor outside custUp without reading its advertisement,
// so custUp must hold exactly the ASes advertising a customer route
// after each kind of window that writes advertisements: a from-scratch
// convergence, every event of a flap storm, a node failure's cascade, a
// re-root and the destination's withdrawal.
func TestCustUpMatchesAdvertisements(t *testing.T) {
	_, g := testGraph(t, 2000, 7)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	multihomed := scenario.Multihomed(g)
	dest := multihomed[len(multihomed)-1]
	if err := eng.InitDest(st, dest); err != nil {
		t.Fatal(err)
	}
	checkCustUp(t, "InitDest", st)
	for _, group := range stormGroups(t, g, 23) {
		for _, ev := range group {
			if _, err := eng.ApplyEvent(st, ev); err != nil {
				t.Fatal(err)
			}
			checkCustUp(t, ev.String(), st)
		}
	}
	if err := eng.InitDest(st, dest); err != nil {
		t.Fatal(err)
	}
	hub := degreeOrder(g)[0]
	lock := st.lockOf(int32(dest))
	if hub == dest || int32(hub) == lock || lock < 0 {
		t.Fatalf("hub %d, destination %d and its lock %d must be three ASes", hub, dest, lock)
	}
	apply := func(ev scenario.Event) EventCost {
		t.Helper()
		cost, err := eng.ApplyEvent(st, ev)
		if err != nil {
			t.Fatal(err)
		}
		checkCustUp(t, ev.String(), st)
		return cost
	}
	apply(scenario.Event{Op: scenario.OpFailNode, Node: hub})
	if cost := apply(scenario.Event{Op: scenario.OpFailLink, A: dest, B: topology.ASN(lock)}); !cost.Reroot {
		t.Fatal("failing the destination's locked provider link did not re-root")
	}
	apply(scenario.Event{Op: scenario.OpWithdraw, Node: dest})
	for p := 0; p < planeCount; p++ {
		for _, w := range st.custUp[p] {
			if w != 0 {
				t.Fatalf("plane %d: a withdrawn destination leaves customer advertisements", p)
			}
		}
	}
}
