package atlas

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stamp/internal/prov"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// The sparse-window tests. State settles an event over per-window
// touched sets and a cascade worklist; MapEngine still snapshots, clears,
// sweeps and accounts over all ASes, so it is the independent oracle for
// routes, EventCost and DestOutcome. listCaps are the capacities the
// differential tests force through the setListCap hook: the default
// (sparse wherever the churn allows — what Run, Replay and serve run
// on), 0 (every window runs the dense passes from its start — the
// procedure before touched sets, kept only as the dense oracle), and
// tiny ones (lists overflow mid-cascade and mid-convergence, so the
// sparse → dense hand-over runs at every position).
var listCaps = []int{-1, 0, 1, 3}

func capName(c int) string {
	if c < 0 {
		return "cap-default"
	}
	return fmt.Sprintf("cap-%d", c)
}

// withCap returns a fresh state with the touched-list capacity forced.
func withCap(eng *Engine, c int) *State {
	st := eng.NewState()
	if c >= 0 {
		st.setListCap(c)
	}
	return st
}

var allKinds = []scenario.Kind{
	scenario.SingleLink, scenario.TwoLinksApart, scenario.TwoLinksShared,
	scenario.NodeFailure, scenario.LinkFlap, scenario.FlapStorm,
	scenario.PrefixWithdraw, scenario.LatencyBrownout,
	scenario.GrayFailure, scenario.OscillatingCongestion,
}

// kindDests picks the destinations a scenario kind is replayed at.
func kindDests(t testing.TB, g *Graph, script scenario.Script, kind scenario.Kind, n int) []topology.ASN {
	t.Helper()
	if kind == scenario.PrefixWithdraw {
		return []topology.ASN{script.Dest} // only meaningful at the withdrawing origin
	}
	dests, err := Destinations(g, n, 29)
	if err != nil {
		t.Fatal(err)
	}
	return dests
}

// TestSparseMatchesDenseOracle replays every scenario kind event by
// event through checkStream: the flat engine at every forced list
// capacity against the dense map oracle (EventCost and DestOutcome per
// event, routes and the canonical journal at the end).
func TestSparseMatchesDenseOracle(t *testing.T) {
	tg, g := testGraph(t, 400, 11)
	fx := newStreamFixture(g)
	multihomed := scenario.Multihomed(g)
	for _, kind := range allKinds {
		script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		for _, dest := range kindDests(t, g, script, kind, 2) {
			fx.checkStream(t, dest, script.Sorted())
		}
	}
}

// TestTouchedSetsCoverEveryChange: the consumer contract behind serve's
// patched publish. A mirror of the routes that is only ever updated at
// the ASes Touched reports (and re-copied when Touched declines) stays
// equal to a full SnapshotRoutes copy, event after event — including
// when it lags two windows, which is how far serve's spare buffer lags.
func TestTouchedSetsCoverEveryChange(t *testing.T) {
	tg, g := testGraph(t, 300, 5)
	eng := NewEngine(g, DefaultParams())
	multihomed := scenario.Multihomed(g)
	n := g.Len()
	type mirror struct {
		window uint64
		kind   [planeCount][]int8
		dist   [planeCount][]int32
		next   [planeCount][]int32
	}
	newMirror := func() *mirror {
		m := &mirror{}
		for p := 0; p < planeCount; p++ {
			m.kind[p], m.dist[p], m.next[p] = make([]int8, n), make([]int32, n), make([]int32, n)
		}
		return m
	}
	copyAll := func(m *mirror, st *State) {
		for p := 0; p < planeCount; p++ {
			st.SnapshotRoutes(p, m.kind[p], m.dist[p], m.next[p])
		}
		m.window = st.Windows()
	}
	for _, kind := range allKinds {
		script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		events := script.Sorted()
		for _, c := range []int{-1, 2} {
			st := withCap(eng, c)
			dest := kindDests(t, g, script, kind, 1)[0]
			if err := eng.InitDest(st, dest); err != nil {
				t.Fatal(err)
			}
			// Two lagging mirrors taking turns, like serve's two buffers.
			bufs := [2]*mirror{newMirror(), newMirror()}
			copyAll(bufs[0], st)
			copyAll(bufs[1], st)
			full := newMirror()
			patched, copied := 0, 0
			for i, ev := range events {
				if _, err := eng.ApplyEvent(st, ev); err != nil {
					t.Fatalf("%v event %d: %v", kind, i, err)
				}
				m := bufs[i%2]
				ok := true
				for w := m.window + 1; ok && w <= st.Windows(); w++ {
					for p := 0; ok && p < planeCount; p++ {
						var touched []int32
						if touched, ok = st.Touched(w, p); ok {
							for _, a := range touched {
								m.kind[p][a], m.dist[p][a], m.next[p][a] = st.SnapshotRoute(p, a)
							}
						}
					}
				}
				if ok {
					m.window = st.Windows()
					patched++
				} else {
					copyAll(m, st)
					copied++
				}
				copyAll(full, st)
				if !reflect.DeepEqual(m.kind, full.kind) || !reflect.DeepEqual(m.dist, full.dist) || !reflect.DeepEqual(m.next, full.next) {
					t.Fatalf("%v %s event %d %v: mirror patched from touched sets differs from a full copy", kind, capName(c), i, ev)
				}
			}
			if c < 0 && kind == scenario.FlapStorm && patched == 0 {
				t.Fatalf("flap storm at default capacity never patched (%d full copies)", copied)
			}
		}
	}
	// A from-scratch convergence retains nothing: a consumer in sync
	// with the old fixpoint must not be told "no changes".
	st := eng.NewState()
	dests, err := Destinations(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitDest(st, dests[0]); err != nil {
		t.Fatal(err)
	}
	synced := st.Windows()
	if err := eng.InitDest(st, dests[1]); err != nil {
		t.Fatal(err)
	}
	if st.Windows() == synced {
		t.Fatal("InitDest did not advance the window sequence")
	}
	for w := synced + 1; w <= st.Windows(); w++ {
		if _, ok := st.Touched(w, planeBGP); ok {
			t.Fatalf("window %d after a re-initialization offers a touched set", w)
		}
	}
}

// TestLinkFlapWorkIsChurnProportional is the work-counter gate: on a
// 20k-AS graph, failing and restoring one access link examines a number
// of ASes bounded by the routes it changed plus the degrees of the ASes
// it touched (their neighbors are re-evaluated) — a vanishing fraction
// of the graph — and no window falls back to a dense pass.
func TestLinkFlapWorkIsChurnProportional(t *testing.T) {
	_, g := testGraph(t, 20_000, 3)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitDest(st, dests[0]); err != nil {
		t.Fatal(err)
	}
	// Flap the first provider link of a sample of multihomed stubs (the
	// last third of the id space is stubs): the event an access-link
	// failure is in the paper's workloads.
	n := int32(g.Len())
	flapped := 0
	for a := n - 1; a > 2*n/3 && flapped < 40; a -= 97 {
		provs := g.Providers(topology.ASN(a))
		if len(provs) < 2 || topology.ASN(a) == dests[0] {
			continue
		}
		flapped++
		for _, op := range []scenario.Op{scenario.OpFailLink, scenario.OpRestoreLink} {
			ev := scenario.Event{Op: op, A: topology.ASN(a), B: provs[0]}
			cost, err := eng.ApplyEvent(st, ev)
			if err != nil {
				t.Fatal(err)
			}
			if st.DenseWindows() != 0 {
				t.Fatalf("%v ran %d dense windows", ev, st.DenseWindows())
			}
			// The budget: every changed route, plus — per plane — the
			// neighborhoods of the event's endpoints and of every AS whose
			// route changed (a change is advertised to all neighbors, each
			// of which is re-evaluated once per advertisement).
			budget := cost.Changed + int64(planeCount*(g.Degree(ev.A)+g.Degree(ev.B)+2))
			for p := 0; p < planeCount; p++ {
				touched, ok := st.Touched(st.Windows(), p)
				if !ok {
					t.Fatalf("%v: plane %d touched set unavailable", ev, p)
				}
				for _, x := range touched {
					budget += int64(g.Degree(topology.ASN(x)))
				}
			}
			if v := st.Visited(); v > 8*budget {
				t.Fatalf("%v visited %d ASes; budget 8×(changed + Σ degree(touched)) = 8×%d", ev, v, budget)
			}
			if v := st.Visited(); v > int64(n)/4 {
				t.Fatalf("%v visited %d of %d ASes: not ≪ N", ev, v, n)
			}
		}
	}
	if flapped < 10 {
		t.Fatalf("only %d stubs flapped; the sample is too thin", flapped)
	}
}

// TestInitDestScansOnlyWhatOffersMove is the work-counter gate on
// from-scratch convergence: a reached AS rescans its row only when its
// next hop's offer changed, takes a strictly better offer without a
// scan, a neighbor no advertisement can move is not reached at all, and
// a leaf is not reached either but settled once after the loop, on one
// scan of its row (settleLeaves). Four InitDests at N=3,000 examined
// 142,215 ASes and adjacency entries (frontier slots, scanned rows,
// reached entries, settled leaves' rows): 198,398 when the loop reached
// leaves, 969,309 when every reached AS rescanned its row. The gate
// fails if that count grows.
func TestInitDestScansOnlyWhatOffersMove(t *testing.T) {
	const measured = 142_215
	_, g := testGraph(t, 3000, 3)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	var visited int64
	for _, dest := range dests {
		if err := eng.InitDest(st, dest); err != nil {
			t.Fatal(err)
		}
		visited += st.Visited()
	}
	if visited > measured {
		t.Fatalf("4 InitDests at N=3000 visited %d ASes and entries; want at most %d", visited, measured)
	}
}

// TestInitDestCountsOnlyItsOwnDenseWindows: a from-scratch convergence
// runs its planeCount windows dense, and DenseWindows after InitDest
// reports exactly those, not also the dense windows of an event group
// applied before it.
func TestInitDestCountsOnlyItsOwnDenseWindows(t *testing.T) {
	_, g := testGraph(t, 2000, 7)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	dest := dests[0]
	if err := eng.InitDest(st, dest); err != nil {
		t.Fatal(err)
	}
	if st.DenseWindows() != planeCount {
		t.Fatalf("first InitDest: %d dense windows, want %d", st.DenseWindows(), planeCount)
	}
	// Failing the destination's locked (lowest) provider link moves the
	// blue chain and re-roots red and blue.
	cost, err := eng.ApplyEvent(st, scenario.Event{Op: scenario.OpFailLink, A: dest, B: g.Providers(dest)[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !cost.Reroot || st.DenseWindows() == 0 {
		t.Fatalf("failing the locked provider link: reroot %v, %d dense windows; want a dense re-root", cost.Reroot, st.DenseWindows())
	}
	if err := eng.InitDest(st, dest); err != nil {
		t.Fatal(err)
	}
	if st.DenseWindows() != planeCount {
		t.Fatalf("InitDest after a re-root: %d dense windows, want %d", st.DenseWindows(), planeCount)
	}
}

// TestListCapZeroRunsEveryWindowDense: a state with no list capacity —
// the dense oracle the differential tests compare against — settles all
// three windows of every event with the dense passes, whether or not
// the event changes anything, so its cost per event does not depend on
// the script.
func TestListCapZeroRunsEveryWindowDense(t *testing.T) {
	_, g := testGraph(t, 400, 11)
	eng := NewEngine(g, DefaultParams())
	st := withCap(eng, 0)
	dests, err := Destinations(g, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitDest(st, dests[0]); err != nil {
		t.Fatal(err)
	}
	quiet := 0
	for a := topology.ASN(g.Len() - 1); a > topology.ASN(g.Len()/2); a-- {
		if a == dests[0] {
			continue
		}
		for _, op := range []scenario.Op{scenario.OpFailLink, scenario.OpRestoreLink} {
			ev := scenario.Event{Op: op, A: a, B: g.Providers(a)[0]}
			cost, err := eng.ApplyEvent(st, ev)
			if err != nil {
				t.Fatal(err)
			}
			if cost.Changed == 0 {
				quiet++
			}
			if st.DenseWindows() != planeCount || st.Visited() < int64(planeCount*g.Len()) {
				t.Fatalf("%v (%d routes changed): %d dense windows, %d ASes visited; want %d windows sweeping all %d ASes",
					ev, cost.Changed, st.DenseWindows(), st.Visited(), planeCount, g.Len())
			}
		}
	}
	if quiet == 0 {
		t.Fatal("no event left every route as it was; the sample does not cover the quiet window")
	}
}

// randomStream draws a valid event sequence biased towards the cases
// sparse windows must get right: links are toggled out of a small pool
// (so restores re-serve ASes an earlier failure cut off — an AS that is
// routeless at window start and one whose permMark is stale), the pool
// includes the destination's own provider links (failing the locked one
// moves the blue chain: a re-root) and access links of single-homed
// stubs (partition), and nodes fail often enough that cascades run
// several sweeps deep with dependents on both sides of their next hop.
func randomStream(rnd *rand.Rand, g *Graph, dest topology.ASN, edges [][2]topology.ASN, length int) []scenario.Event {
	byDegree := degreeOrder(g)
	var pool [][2]topology.ASN
	inPool := map[[2]topology.ASN]bool{}
	add := func(a, b topology.ASN) {
		if k := [2]topology.ASN{min(a, b), max(a, b)}; !inPool[k] {
			inPool[k] = true
			pool = append(pool, k)
		}
	}
	for _, p := range g.Providers(dest) {
		add(dest, p)
	}
	for len(pool) < 10 {
		e := edges[rnd.Intn(len(edges))]
		add(e[0], e[1])
	}
	for tries := 0; len(pool) < 14 && tries < 10_000; tries++ {
		a := topology.ASN(rnd.Intn(g.Len()))
		if provs := g.Providers(a); len(provs) == 1 && len(g.Customers(a)) > 0 {
			add(a, provs[0])
		}
	}
	down := make([]bool, len(pool))
	nodeDown := map[topology.ASN]bool{}
	withdrawn := false
	var events []scenario.Event
	for len(events) < length {
		switch r := rnd.Intn(100); {
		case r < 78:
			i := rnd.Intn(len(pool))
			op := scenario.OpFailLink
			if down[i] {
				op = scenario.OpRestoreLink
			}
			down[i] = !down[i]
			events = append(events, scenario.Event{Op: op, A: pool[i][0], B: pool[i][1]})
		case r < 96:
			node := topology.ASN(rnd.Intn(g.Len()))
			if rnd.Intn(3) == 0 {
				node = byDegree[rnd.Intn(20)] // a hub: a wide, deep cascade
			}
			if nodeDown[node] {
				continue
			}
			nodeDown[node] = true
			events = append(events, scenario.Event{Op: scenario.OpFailNode, Node: node})
		default:
			if withdrawn {
				continue
			}
			withdrawn = true
			events = append(events, scenario.Event{Op: scenario.OpWithdraw, Node: dest})
		}
	}
	return events
}

// streamFixture is the engines and states checkStream reuses across
// streams.
type streamFixture struct {
	g    *Graph
	flat *Engine
	ref  *MapEngine
	mst  *MapState
	mj   *prov.Journal
	sts  []*State // one per listCaps entry
	js   []*prov.Journal
}

func newStreamFixture(g *Graph) *streamFixture {
	fx := &streamFixture{g: g, flat: NewEngine(g, DefaultParams()), ref: NewMapEngine(g, DefaultParams())}
	fx.mst, fx.mj = fx.ref.NewState(), prov.NewJournal(1<<18)
	fx.mst.SetJournal(fx.mj)
	for _, c := range listCaps {
		st, j := withCap(fx.flat, c), prov.NewJournal(1<<18)
		st.SetJournal(j)
		fx.sts, fx.js = append(fx.sts, st), append(fx.js, j)
	}
	return fx
}

// checkStream applies events at dest on the dense map oracle and on the
// flat engine at every forced capacity, and after each event compares
// EventCost and DestOutcome with the oracle's; at the end it compares
// the routes, and every capacity's journal with the oracle's in
// canonical form (canonicalJournal).
// Returns how many re-roots and dense windows the default-capacity
// state saw.
func (fx *streamFixture) checkStream(t testing.TB, dest topology.ASN, events []scenario.Event) (reroots, dense int) {
	t.Helper()
	if err := fx.ref.InitDest(fx.mst, dest); err != nil {
		t.Fatal(err)
	}
	for _, st := range fx.sts {
		if err := fx.flat.InitDest(st, dest); err != nil {
			t.Fatal(err)
		}
	}
	for i, ev := range events {
		want, err := fx.ref.ApplyEvent(fx.mst, ev)
		if err != nil {
			t.Fatalf("event %d %v map: %v", i, ev, err)
		}
		wantOut := fx.ref.FinishDest(fx.mst)
		for k, st := range fx.sts {
			cost, err := fx.flat.ApplyEvent(st, ev)
			if err != nil {
				t.Fatalf("event %d %v %s: %v", i, ev, capName(listCaps[k]), err)
			}
			if cost != want {
				t.Fatalf("event %d %v %s: EventCost %+v, dense oracle %+v", i, ev, capName(listCaps[k]), cost, want)
			}
			if out := fx.flat.FinishDest(st); !reflect.DeepEqual(out, wantOut) {
				t.Fatalf("event %d %v %s: DestOutcome\n flat %+v\n map  %+v", i, ev, capName(listCaps[k]), out, wantOut)
			}
			if k == 0 {
				dense += st.DenseWindows()
				if cost.Reroot {
					reroots++
				}
			}
		}
	}
	if fx.mj.Evicted() != 0 {
		t.Fatalf("map journal evicted %d entries; enlarge it", fx.mj.Evicted())
	}
	wantJournal := canonicalJournal(fx.mj)
	for k, st := range fx.sts {
		mustNoDiff(t, capName(listCaps[k])+" vs map", st, fx.mst)
		if fx.js[k].Evicted() != 0 {
			t.Fatalf("journal evicted %d entries; enlarge it", fx.js[k].Evicted())
		}
		if got := canonicalJournal(fx.js[k]); !reflect.DeepEqual(got, wantJournal) {
			t.Fatalf("%s: canonical journal (%d entries) differs from the map oracle's (%d entries)",
				capName(listCaps[k]), len(got), len(wantJournal))
		}
	}
	return reroots, dense
}

// TestSparseRandomStreams runs checkStream over seeded random streams.
// The curated scenario scripts only ever damage multihomed ASes, one or
// two links at a time; these streams partition, re-serve, re-root and
// cascade, which is where lazily initialized accounting and an ordered
// worklist can go wrong.
func TestSparseRandomStreams(t *testing.T) {
	streams := 60
	if testing.Short() {
		streams = 12
	}
	_, g := testGraph(t, 600, 13)
	edges := graphEdges(g)
	dests, err := Destinations(g, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	fx := newStreamFixture(g)
	reroots, dense := 0, 0
	for i := 0; i < streams; i++ {
		rnd := rand.New(rand.NewSource(int64(1000 + i)))
		dest := dests[i%len(dests)]
		r, d := fx.checkStream(t, dest, randomStream(rnd, g, dest, edges, 30))
		reroots, dense = reroots+r, dense+d
	}
	if reroots == 0 || dense == 0 {
		t.Fatalf("streams exercised %d re-roots and %d dense windows; both must occur", reroots, dense)
	}
}

// TestSeedRedDependentsOrder: blue's seed frontier from red's touched
// set holds the same ASes as the dense pass's, whatever order red
// changed them in. The order itself is not a contract.
func TestSeedRedDependentsOrder(t *testing.T) {
	_, g := testGraph(t, 200, 9)
	eng := NewEngine(g, DefaultParams())
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var fronts [2][]int32
	for i, c := range []int{-1, 0} {
		st := withCap(eng, c)
		if err := eng.InitDest(st, dests[0]); err != nil {
			t.Fatal(err)
		}
		// The window methods run inside an engine call; this drives them
		// directly, so it holds a window of its own (and never returns it:
		// the seeded frontier stays queued).
		eng.lend(st)
		st.beginGroup()
		redEpoch := st.beginWindow(planeRed, false)
		for _, a := range []int32{150, 42, 97, 7} {
			st.markChanged(planeRed, a, true)
		}
		st.beginWindow(planeBlue, false)
		st.seedRedDependents(redEpoch)
		fronts[i] = slices.Sorted(slices.Values(st.front[:st.frontLen]))
	}
	if len(fronts[0]) < 4 || !reflect.DeepEqual(fronts[0], fronts[1]) {
		t.Fatalf("blue seed frontier from the touched set %v differs from the dense pass's %v", fronts[0], fronts[1])
	}
}
