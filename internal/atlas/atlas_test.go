package atlas

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stamp/internal/scenario"
	"stamp/internal/testkit"
	"stamp/internal/topology"
)

func testGraph(t testing.TB, n int, seed int64) (*topology.Graph, *Graph) {
	t.Helper()
	tg, err := topology.GenerateDefault(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromTopology(tg)
	if err != nil {
		t.Fatal(err)
	}
	return tg, g
}

// TestCSRMatchesTopology: the CSR conversion preserves every adjacency
// fact of the source graph.
func TestCSRMatchesTopology(t *testing.T) {
	tg, g := testGraph(t, 300, 3)
	if g.Len() != tg.Len() || g.EdgeCount() != tg.EdgeCount() {
		t.Fatalf("size mismatch: CSR %d/%d, topology %d/%d", g.Len(), g.EdgeCount(), tg.Len(), tg.EdgeCount())
	}
	asSet := func(xs []topology.ASN) map[topology.ASN]bool {
		m := make(map[topology.ASN]bool, len(xs))
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	for a := 0; a < tg.Len(); a++ {
		v := topology.ASN(a)
		if !reflect.DeepEqual(asSet(g.Providers(v)), asSet(tg.Providers(v))) {
			t.Fatalf("AS %d providers: CSR %v, topology %v", a, g.Providers(v), tg.Providers(v))
		}
		if !reflect.DeepEqual(asSet(g.Peers(v)), asSet(tg.Peers(v))) {
			t.Fatalf("AS %d peers: CSR %v, topology %v", a, g.Peers(v), tg.Peers(v))
		}
		if !reflect.DeepEqual(asSet(g.Customers(v)), asSet(tg.Customers(v))) {
			t.Fatalf("AS %d customers: CSR %v, topology %v", a, g.Customers(v), tg.Customers(v))
		}
		if g.Degree(v) != tg.Degree(v) || g.IsMultihomed(v) != tg.IsMultihomed(v) || g.IsTier1(v) != tg.IsTier1(v) {
			t.Fatalf("AS %d degree/multihomed/tier1 mismatch", a)
		}
		// Groups are sorted ascending.
		for _, group := range [][]topology.ASN{g.Providers(v), g.Peers(v), g.Customers(v)} {
			for i := 1; i < len(group); i++ {
				if group[i-1] >= group[i] {
					t.Fatalf("AS %d group not strictly ascending: %v", a, group)
				}
			}
		}
		for _, b := range g.Neighbors(nil, v) {
			if got, want := g.Rel(v, b), tg.Rel(v, b); got != want {
				t.Fatalf("Rel(%d,%d): CSR %v, topology %v", v, b, got, want)
			}
		}
	}
	mustReverseIndex(t, g)
	mustTransitIndex(t, g)
	for _, seed := range []int64{1, 7, 42} {
		_, big := testGraph(t, 3000, seed)
		mustReverseIndex(t, big)
		mustTransitIndex(t, big)
	}
	// degreeOrder is degree-descending with ascending-id ties.
	ord := degreeOrder(g)
	if len(ord) != g.Len() {
		t.Fatalf("degreeOrder len %d", len(ord))
	}
	for i := 1; i < len(ord); i++ {
		di, dj := g.Degree(ord[i-1]), g.Degree(ord[i])
		if di < dj || (di == dj && ord[i-1] >= ord[i]) {
			t.Fatalf("degreeOrder violated at %d: AS %d (deg %d) before AS %d (deg %d)", i, ord[i-1], di, ord[i], dj)
		}
	}
}

// degreeOrder returns the ASes sorted by total degree descending, ties
// by ascending id: the deterministic "big transit first" order the
// tests pick hubs from. One ascending sort on (^degree, id).
func degreeOrder(g *Graph) []topology.ASN {
	keys := make([]uint64, g.n)
	for a := range keys {
		keys[a] = uint64(^uint32(g.Degree(topology.ASN(a))))<<32 | uint64(a)
	}
	slices.Sort(keys)
	ord := make([]topology.ASN, g.n)
	for i, k := range keys {
		ord[i] = topology.ASN(uint32(k))
	}
	return ord
}

// mustReverseIndex checks rev entry by entry: it is an involution, it
// leads back to the row's owner from the inverse relationship group, and
// it names the entry the binary search over that row finds.
func mustReverseIndex(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.rev) != len(g.nbr) {
		t.Fatalf("rev has %d entries, nbr %d", len(g.rev), len(g.nbr))
	}
	for a := topology.ASN(0); a < topology.ASN(g.n); a++ {
		for e := g.off[a]; e < g.off[a+1]; e++ {
			b, r := g.nbr[e], g.rev[e]
			if r < g.off[b] || r >= g.off[b+1] {
				t.Fatalf("rev[%d] = %d (edge %d->%d) lies outside %d's row [%d, %d)", e, r, a, b, b, g.off[b], g.off[b+1])
			}
			if g.rev[r] != e {
				t.Fatalf("rev[rev[%d]] = %d, want %d (edge %d->%d)", e, g.rev[r], e, a, b)
			}
			if g.nbr[r] != a {
				t.Fatalf("nbr[rev[%d]] = %d, want the row owner %d", e, g.nbr[r], a)
			}
			if got, want := entryRel(g, b, r), entryRel(g, a, e).Invert(); got != want {
				t.Fatalf("rev[%d] sits in %d's %v group; edge %d->%d is %v, so want %v", e, b, got, a, b, entryRel(g, a, e), want)
			}
			if want := g.entryIndex(b, a); r != want {
				t.Fatalf("rev[%d] = %d, entryIndex(%d, %d) = %d", e, r, b, a, want)
			}
		}
	}
}

// mustTransitIndex checks the transit index row by row: it lists
// exactly the customer entries whose neighbor has customers of its own,
// ascending, and the leaf bits mark exactly the customerless ASes.
func mustTransitIndex(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.transitOff) != g.Len()+1 || g.transitOff[0] != 0 || int(g.transitOff[g.n]) != len(g.transit) {
		t.Fatalf("transitOff has %d bounds from %d to %d over %d entries", len(g.transitOff), g.transitOff[0], g.transitOff[g.n], len(g.transit))
	}
	var want []int32
	for a := topology.ASN(0); a < topology.ASN(g.n); a++ {
		if got := g.leaf.has(int32(a)); got != (len(g.Customers(a)) == 0) {
			t.Fatalf("AS %d: leaf bit %v with %d customers", a, got, len(g.Customers(a)))
		}
		want = want[:0]
		for e := g.peerEnd[a]; e < g.off[a+1]; e++ {
			if len(g.Customers(g.nbr[e])) > 0 {
				want = append(want, e)
			}
		}
		if got := g.transit[g.transitOff[a]:g.transitOff[a+1]]; !slices.Equal(got, want) {
			t.Fatalf("AS %d: transit entries %v, want %v", a, got, want)
		}
	}
}

// entryRel is the relationship group entry e of a's row sits in.
func entryRel(g *Graph, a topology.ASN, e int32) topology.Rel {
	switch {
	case e < g.provEnd[a]:
		return topology.RelProvider
	case e < g.peerEnd[a]:
		return topology.RelPeer
	}
	return topology.RelCustomer
}

// csrFingerprint hashes the CSR layout freeze produces: the row bounds,
// the group boundaries, the neighbor column with each entry's
// relationship (read back through Rel), and the degree order
// (degreeOrder). The reverse, leaf and transit indexes are derived from
// these and checked entry by entry instead.
func csrFingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, s := range [][]int32{g.off, g.provEnd, g.peerEnd} {
		put(int64(len(s)))
		for _, v := range s {
			put(int64(v))
		}
	}
	put(int64(len(g.nbr)))
	for a := int32(0); a < g.n; a++ {
		for _, b := range g.nbr[g.off[a]:g.off[a+1]] {
			put(int64(b))
			put(int64(g.Rel(topology.ASN(a), b)))
		}
	}
	ord := degreeOrder(g)
	put(int64(len(ord)))
	for _, a := range ord {
		put(int64(a))
	}
	return h.Sum64()
}

// TestFreezeFingerprintPinned pins the CSR layout array for array. The
// values were taken from the single global three-key sort.Slice that
// the counting placement plus per-row packed-key sort replaced, so any
// drift in group order, neighbor order or degree tie-breaking shows up
// here.
func TestFreezeFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{60, 1, 0xa4464e89d01cc7c7},
		{300, 7, 0x1f231858ab76054e},
		{1000, 42, 0xf0885fc617617beb},
		{2500, 3, 0xc537aca8584c4029},
		{5000, 11, 0xcb097c5f5be23276},
	} {
		_, g := testGraph(t, tc.n, tc.seed)
		if got := csrFingerprint(g); got != tc.want {
			t.Errorf("FromTopology(GenerateDefault(%d, %d)) fingerprint = %#x, want %#x", tc.n, tc.seed, got, tc.want)
		}
	}
	g, err := Ingest(strings.NewReader(caidaFixture))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := csrFingerprint(g), uint64(0xeac1dad6c2ef3c6); got != want {
		t.Errorf("Ingest(caidaFixture) fingerprint = %#x, want %#x", got, want)
	}
}

// TestFreezeNamesTheDuplicatePair: a link claimed twice — with the same
// or with conflicting relationships — fails naming the row AS and the
// repeated neighbor, whatever order the claims arrive in.
func TestFreezeNamesTheDuplicatePair(t *testing.T) {
	for _, links := range [][][3]int{
		{{0, 1, int(topology.RelProvider)}, {2, 3, int(topology.RelPeer)}, {0, 1, int(topology.RelProvider)}},
		{{2, 3, int(topology.RelPeer)}, {0, 1, int(topology.RelPeer)}, {0, 1, int(topology.RelProvider)}},
		{{1, 0, int(topology.RelProvider)}, {0, 1, int(topology.RelProvider)}},
	} {
		b := &builder{n: 4}
		for _, l := range links {
			b.addLink(topology.ASN(l[0]), topology.ASN(l[1]), topology.Rel(l[2]))
		}
		_, err := b.freeze()
		if want := "atlas: duplicate or conflicting link between 0 and 1"; err == nil || err.Error() != want {
			t.Errorf("links %v: error %v, want %q", links, err, want)
		}
	}
}

// TestBGPFixpointMatchesStaticRoutes: the atlas BGP plane must converge
// to exactly the unique stable Gao-Rexford solution the repository's
// analytical solver (and, transitively, the message-level simulator)
// produces — next hops, path lengths, and reachability all equal.
func TestBGPFixpointMatchesStaticRoutes(t *testing.T) {
	tg, g := testGraph(t, 400, 7)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, dest := range dests {
		if _, err := eng.ConvergeDest(st, dest, nil); err != nil {
			t.Fatal(err)
		}
		want := testkit.StaticRoutes(tg, dest)
		for a := 0; a < g.Len(); a++ {
			has := st.cur[planeBGP][a].pref != prefNone
			if has != (want[a] != nil) {
				t.Fatalf("dest %d AS %d: atlas reachable=%v, static=%v", dest, a, has, want[a] != nil)
			}
			if !has || topology.ASN(a) == dest {
				continue
			}
			next := g.nbr[st.cur[planeBGP][a].via]
			if next != want[a][0] {
				t.Fatalf("dest %d AS %d: atlas next %d, static %d", dest, a, next, want[a][0])
			}
			if int(distOf(st.cur[planeBGP][a].pref)) != len(want[a]) {
				t.Fatalf("dest %d AS %d: atlas dist %d, static %d", dest, a, distOf(st.cur[planeBGP][a].pref), len(want[a]))
			}
		}
	}
}

// TestStampPlanesSane: red and blue together cover the graph where BGP
// does; the blue lock chain exists for multi-homed destinations; the
// origin's locked provider receives no red announcement from it.
func TestStampPlanesSane(t *testing.T) {
	_, g := testGraph(t, 400, 7)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	dests, err := Destinations(g, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, dest := range dests {
		if _, err := eng.ConvergeDest(st, dest, nil); err != nil {
			t.Fatal(err)
		}
		if len(st.chain) < 2 {
			t.Fatalf("dest %d: lock chain %v too short for a multi-homed dest", dest, st.chain)
		}
		for a := 0; a < g.Len(); a++ {
			bgpHas := st.cur[planeBGP][a].pref != prefNone
			stampHas := st.cur[planeRed][a].pref != prefNone || st.cur[planeBlue][a].pref != prefNone
			if bgpHas != stampHas {
				t.Fatalf("dest %d AS %d: bgp reachable=%v but red∪blue=%v", dest, a, bgpHas, stampHas)
			}
		}
		// Every chain member has a blue route, and the chain's locked
		// providers heard blue.
		for _, v := range st.chain {
			if st.cur[planeBlue][v].pref == prefNone {
				t.Fatalf("dest %d: chain member %d has no blue route", dest, v)
			}
		}
	}
}

func stormGroups(t testing.TB, g *Graph, seed int64) [][]scenario.Event {
	t.Helper()
	script, err := scenario.PickScript(g, scenario.Multihomed(g), scenario.FlapStorm,
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return groupEvents(script)
}

// TestFlatMatchesMapEngine: the slab engine and the map-based reference
// produce identical outcomes — rounds, churn, loss integrals — on every
// scenario kind atlas supports. This is what lets BenchmarkAtlasConverge
// claim the flat layout is a pure-speed change, and — since the map
// engine kept the dense per-window passes — what pins the slab engine's
// sparse windows through the grouped driver, whose groups hold several
// events (a cascade seeded at many endpoints at once). Every forced
// touched-list capacity must agree: sparse, always dense, and
// overflowing part-way.
func TestFlatMatchesMapEngine(t *testing.T) {
	tg, g := testGraph(t, 300, 5)
	flat := NewEngine(g, DefaultParams())
	ref := NewMapEngine(g, DefaultParams())
	mst := ref.NewState()
	multihomed := scenario.Multihomed(g)
	for _, kind := range []scenario.Kind{
		scenario.SingleLink, scenario.TwoLinksApart, scenario.TwoLinksShared,
		scenario.NodeFailure, scenario.LinkFlap, scenario.FlapStorm,
	} {
		script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		groups := groupEvents(script)
		dests, err := Destinations(g, 4, 23)
		if err != nil {
			t.Fatal(err)
		}
		for _, dest := range dests {
			mo, err := ref.ConvergeDest(mst, dest, groups)
			if err != nil {
				t.Fatalf("%v dest %d map: %v", kind, dest, err)
			}
			for _, c := range listCaps {
				fst := withCap(flat, c)
				fo, err := flat.ConvergeDest(fst, dest, groups)
				if err != nil {
					t.Fatalf("%v dest %d flat %s: %v", kind, dest, capName(c), err)
				}
				if !reflect.DeepEqual(fo, mo) {
					t.Fatalf("%v dest %d %s: flat and map outcomes differ\nflat: %+v\nmap:  %+v", kind, dest, capName(c), fo, mo)
				}
				mustNoDiff(t, fmt.Sprintf("%v dest %d %s", kind, dest, capName(c)), fst, mst)
			}
		}
	}
}

// TestFlatMatchesMapEngineAtScale holds the flat engine to the map
// engine on the flap storm at 3k ASes, with MRAI pacing and without.
// The map engine queues every publication, so it is the oracle for the
// flat engine's in-place record of publications no neighbor can take:
// at this size most ASes are customerless, and their MRAI gates and
// st.live decide round counts.
//
// It is also the differential of the flat engine's from-scratch path,
// which reaches no leaf in its loop: customers through the transit
// index, late leaves replayed from publication chains for the round
// count, every leaf settled after blue's loop. The map engine reaches
// every AS in its loop. Over TestJournalDoesNotChangeOutcomes' matrix —
// N = 400 and 3,000, six MRAI pacings, every kind Run accepts at two
// destinations, list capacities −1 and 0 — InitDest and ConvergeScratch
// over each damaging group prefix and a withdrawn origin must agree with
// the map engine on the outcome (InitRounds included), the routes and
// the advertisements, and retain no touched set.
func TestFlatMatchesMapEngineAtScale(t *testing.T) {
	_, g := testGraph(t, 3000, 5)
	groups := stormGroups(t, g, 17)
	dests, err := Destinations(g, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range []Params{DefaultParams(), {MRAIRounds: NoMRAI}} {
		flat, ref := NewEngine(g, params), NewMapEngine(g, params)
		mst := ref.NewState()
		for _, dest := range dests {
			mo, err := ref.ConvergeDest(mst, dest, groups)
			if err != nil {
				t.Fatalf("mrai %d dest %d map: %v", params.MRAIRounds, dest, err)
			}
			for _, c := range listCaps {
				label := fmt.Sprintf("mrai %d dest %d %s", params.MRAIRounds, dest, capName(c))
				fst := withCap(flat, c)
				fo, err := flat.ConvergeDest(fst, dest, groups)
				if err != nil {
					t.Fatalf("%s flat: %v", label, err)
				}
				if !reflect.DeepEqual(fo, mo) {
					t.Fatalf("%s: flat and map outcomes differ\nflat: %+v\nmap:  %+v", label, fo, mo)
				}
				mustNoDiff(t, label, fst, mst)
			}
		}
	}

	for _, tc := range []struct {
		n    int
		seed int64
	}{{400, 11}, {3000, 3}} {
		tg, g := testGraph(t, tc.n, tc.seed)
		multihomed := scenario.Multihomed(g)
		// The kinds run at the first two destinations; a bare InitDest,
		// cheap next to the damage prefixes, runs at all sixteen, where
		// more of the late-leaf MRAI queue runs.
		dests, err := Destinations(g, 16, 31)
		if err != nil {
			t.Fatal(err)
		}
		for _, params := range []Params{DefaultParams(), {MRAIRounds: NoMRAI}, {MRAIRounds: 1}, {MRAIRounds: 3}, {MRAIRounds: 4}, {MRAIRounds: 6}} {
			flat, ref := NewEngine(g, params), NewMapEngine(g, params)
			fsts := []*State{withCap(flat, -1), withCap(flat, 0)}
			mst := ref.NewState()
			check := func(name string, dest topology.ASN, pre []scenario.Event) {
				t.Helper()
				if err := ref.ConvergeScratch(mst, dest, pre); err != nil {
					t.Fatal(err)
				}
				mo := ref.FinishDest(mst)
				for i, fst := range fsts {
					label := fmt.Sprintf("N=%d MRAI %d %s %s", tc.n, params.MRAIRounds, name, capName(i-1))
					var err error
					if pre == nil {
						err = flat.InitDest(fst, dest)
					} else {
						err = flat.ConvergeScratch(fst, dest, pre)
					}
					if err != nil {
						t.Fatal(err)
					}
					if fo := flat.FinishDest(fst); !reflect.DeepEqual(fo, mo) {
						t.Fatalf("%s: flat and map outcomes differ\nflat: %+v\nmap:  %+v", label, fo, mo)
					}
					mustNoDiff(t, label, fst, mst)
					mustMatchMapScratch(t, label, fst, mst)
				}
			}
			for _, dest := range dests {
				check(fmt.Sprintf("InitDest %d", dest), dest, nil)
			}
			for _, kind := range allKinds {
				if kind == scenario.PrefixWithdraw {
					continue // Run and Replay refuse it
				}
				script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(21)))
				if err != nil {
					t.Fatal(err)
				}
				for _, dest := range dests[:2] {
					for _, pre := range damagePrefixes(groupEvents(script), dest)[1:] {
						check(fmt.Sprintf("%v dest %d over %d events", kind, dest, len(pre)), dest, pre)
					}
				}
			}
		}
	}
}

// mustMatchMapScratch fails unless the flat state st, just converged
// from scratch, advertises on every plane what the map state does and
// retains no touched set for either window it keeps.
func mustMatchMapScratch(t *testing.T, label string, st *State, mst *MapState) {
	t.Helper()
	for p := 0; p < planeCount; p++ {
		for a, pref := range st.adv[p] {
			want := prefNone
			if r, ok := mst.adv[p][int32(a)]; ok {
				want = mkPref(r.kind, r.dist)
			}
			if pref != want {
				t.Fatalf("%s: %s AS %d advertises %#x, the map engine %#x", label, PlaneName(p), a, pref, want)
			}
		}
		for seq := st.Windows() - 1; seq <= st.Windows(); seq++ {
			if as, ok := st.Touched(seq, p); ok {
				t.Fatalf("%s: window %d %s retains touched set %v after a from-scratch convergence", label, seq, PlaneName(p), as)
			}
		}
	}
}

// damagePrefixes is the pre-existing damage the from-scratch
// differentials converge over: none, the script's events up to the end
// of each group that moves a route (links and nodes down), then all of
// them with the origin withdrawn.
func damagePrefixes(groups [][]scenario.Event, dest topology.ASN) [][]scenario.Event {
	out := [][]scenario.Event{nil}
	var pre []scenario.Event
	for _, group := range groups {
		pre = append(pre, group...)
		if slices.ContainsFunc(group, func(ev scenario.Event) bool { return !ev.Op.Quality() }) {
			out = append(out, slices.Clone(pre))
		}
	}
	return append(out, append(slices.Clone(pre), scenario.Event{Op: scenario.OpWithdraw, Node: dest}))
}

// TestStateReuse: a state carries nothing across shards — converging
// dest A, then B, gives the same outcome as a fresh state on B.
func TestStateReuse(t *testing.T) {
	_, g := testGraph(t, 200, 9)
	eng := NewEngine(g, DefaultParams())
	groups := stormGroups(t, g, 31)
	dests, err := Destinations(g, 2, 37)
	if err != nil {
		t.Fatal(err)
	}
	reused := eng.NewState()
	if _, err := eng.ConvergeDest(reused, dests[0], groups); err != nil {
		t.Fatal(err)
	}
	second, err := eng.ConvergeDest(reused, dests[1], groups)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eng.ConvergeDest(eng.NewState(), dests[1], groups)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, fresh) {
		t.Fatalf("reused state diverged:\nreused: %+v\nfresh:  %+v", second, fresh)
	}
}

// TestRunByteIdenticalAcrossWorkers is the acceptance criterion at the
// subsystem level: the full atlas run marshals to identical JSON for
// any worker count.
func TestRunByteIdenticalAcrossWorkers(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	var snaps [][]byte
	for _, workers := range []int{1, 4} {
		rep, err := Run(Options{
			Graph: g, Scenario: scenario.FlapStorm, Dests: 8, Seed: 42, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, raw)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("atlas Run differs across worker counts:\n%.400s\n%.400s", snaps[0], snaps[1])
	}
}

// TestLossOrdering pins the paper's resilience ordering on the atlas
// engine: STAMP's data plane (lost only when both colors are down)
// loses no more than BGP under churn, and strictly less on the storm
// workload where BGP's single plane keeps getting re-broken.
func TestLossOrdering(t *testing.T) {
	_, g := testGraph(t, 600, 5)
	rep, err := Run(Options{Graph: g, Scenario: scenario.FlapStorm, Dests: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StampLostASRounds > rep.BGP.LostASRounds {
		t.Fatalf("STAMP lost %d AS-rounds > BGP %d", rep.StampLostASRounds, rep.BGP.LostASRounds)
	}
	if rep.BGP.LostASRounds == 0 {
		t.Fatalf("storm produced no BGP loss; workload too weak to order protocols")
	}
	if rep.StampLostASRounds >= rep.BGP.LostASRounds {
		t.Fatalf("STAMP %d not strictly below BGP %d on the storm", rep.StampLostASRounds, rep.BGP.LostASRounds)
	}
}

// TestRunRejectsWithdraw: the destination-sharded runner refuses the
// single-origin workload instead of producing nonsense.
func TestRunRejectsWithdraw(t *testing.T) {
	_, g := testGraph(t, 100, 1)
	if _, err := Run(Options{Graph: g, Scenario: scenario.PrefixWithdraw, Seed: 1}); err == nil {
		t.Fatal("expected an error for prefix-withdraw")
	}
}

// TestConvergeHotLoopAllocs is the allocs/op regression gate on the
// atlas hot path: converging a destination shard on a reused state
// allocates nothing.
func TestConvergeHotLoopAllocs(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	groups := stormGroups(t, g, 19)
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.ConvergeDest(st, dests[0], groups); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("convergence loop allocates: %v allocs/op, want 0", allocs)
	}
}

// TestStampLossWhenOnePlanePartitions: if a group permanently severs
// the red plane while blue only blips, the STAMP data plane is down
// exactly during blue's gap — the dead plane must count as "down all
// window" in the min(), not as lossless. Hand-built topology: D is
// multihomed under P1 (blue-locked) and P2 (red); X is a stub under
// tier-1s T and T2. One group fails D—P2 (red's only origin export —
// red dies everywhere, permanently) and X—T (blue re-routes X to T2
// after a gap).
func TestStampLossWhenOnePlanePartitions(t *testing.T) {
	const (
		nT  = 0 // tier-1
		nT2 = 1 // tier-1, peers with T
		nP1 = 2 // D's blue-locked provider (lowest id)
		nP2 = 3 // D's red provider
		nD  = 4 // destination
		nX  = 5 // multihomed stub under T and T2
	)
	tg := topology.NewGraph(6)
	for _, l := range [][2]topology.ASN{
		{nP1, nT}, {nP2, nT}, {nD, nP1}, {nD, nP2}, {nX, nT}, {nX, nT2},
	} {
		if err := tg.AddProviderLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tg.AddPeerLink(nT, nT2); err != nil {
		t.Fatal(err)
	}
	g, err := FromTopology(tg)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]scenario.Event{{
		{Op: scenario.OpFailLink, A: nD, B: nP2},
		{Op: scenario.OpFailLink, A: nX, B: nT},
	}}
	flat := NewEngine(g, DefaultParams())
	out, err := flat.ConvergeDest(flat.NewState(), nD, groups)
	if err != nil {
		t.Fatal(err)
	}
	if out.Red.UnreachableFinal == 0 {
		t.Fatalf("red plane should be partitioned: %+v", out.Red)
	}
	if out.Blue.LostASRounds == 0 {
		t.Fatalf("blue should have a transient gap at X: %+v", out.Blue)
	}
	// The STAMP data plane was down at X during blue's gap (red was
	// dead the whole window): the loss must surface, not vanish into
	// min(0, gap).
	if out.StampLostASRounds != out.Blue.LostASRounds {
		t.Fatalf("STAMP lost %d AS-rounds, want blue's transient gap %d (red dead all window)",
			out.StampLostASRounds, out.Blue.LostASRounds)
	}
	// And the map reference agrees exactly.
	ref := NewMapEngine(g, DefaultParams())
	mout, err := ref.ConvergeDest(ref.NewState(), nD, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, mout) {
		t.Fatalf("flat and map diverge on the partition case:\nflat: %+v\nmap:  %+v", out, mout)
	}
}

// TestStampLossAtSingleCoveredAS: an AS only red ever serves (blue
// legitimately covers a subset) has no fallback — its red outage IS a
// STAMP outage and must not vanish into min(red, 0). Topology: Y is a
// provider-free AS whose only routes come up from customers P2/P3;
// their blue is provider-learned and never climbs, so Y is red-only.
// Failing D—P2 makes Y's red re-route via P3 after a gap.
func TestStampLossAtSingleCoveredAS(t *testing.T) {
	const (
		nT  = 0 // tier-1
		nT2 = 1 // tier-1, peers with T
		nP1 = 2 // D's blue-locked provider
		nP2 = 3 // red provider (under T and Y)
		nD  = 4 // destination
		nX  = 5 // stub under T and T2
		nY  = 6 // provider of P2 and P3 only — red-only coverage
		nP3 = 7 // second red provider (under T and Y)
	)
	tg := topology.NewGraph(8)
	for _, l := range [][2]topology.ASN{
		{nP1, nT}, {nP2, nT}, {nP3, nT}, {nD, nP1}, {nD, nP2}, {nD, nP3},
		{nX, nT}, {nX, nT2}, {nP2, nY}, {nP3, nY},
	} {
		if err := tg.AddProviderLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tg.AddPeerLink(nT, nT2); err != nil {
		t.Fatal(err)
	}
	g, err := FromTopology(tg)
	if err != nil {
		t.Fatal(err)
	}
	flat := NewEngine(g, DefaultParams())
	st := flat.NewState()
	if _, err := flat.ConvergeDest(st, nD, nil); err != nil {
		t.Fatal(err)
	}
	if st.cur[planeRed][nY].pref == prefNone || st.cur[planeBlue][nY].pref != prefNone {
		t.Fatalf("fixture broken: Y should be red-only (red=%d blue=%d)",
			kindOf(st.cur[planeRed][nY].pref), kindOf(st.cur[planeBlue][nY].pref))
	}
	groups := [][]scenario.Event{{{Op: scenario.OpFailLink, A: nD, B: nP2}}}
	out, err := flat.ConvergeDest(st, nD, groups)
	if err != nil {
		t.Fatal(err)
	}
	if out.Red.LostASRounds == 0 {
		t.Fatalf("red should have a transient gap: %+v", out.Red)
	}
	if out.StampLostASRounds == 0 {
		t.Fatalf("STAMP lost 0 AS-rounds but red-only ASes had a gap with no blue fallback: red=%+v", out.Red)
	}
	ref := NewMapEngine(g, DefaultParams())
	mout, err := ref.ConvergeDest(ref.NewState(), nD, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, mout) {
		t.Fatalf("flat and map diverge on the red-only case:\nflat: %+v\nmap:  %+v", out, mout)
	}
}

// NoMRAI disables advertisement pacing when assigned to
// Params.MRAIRounds. The zero Params value means "defaults" (see
// NewEngine), so "off" needs a negative sentinel.
const NoMRAI = -1

// Visited returns how many ASes and adjacency entries the latest event
// group's window machinery examined (or, after InitDest, the from-scratch
// convergence's) — the work counter that pins ApplyEvent's cost to the
// event's churn rather than to the size of the graph. A from-scratch
// convergence, which settles its leaves after the loop (settleLeaves),
// counts the entries it reaches and each settled leaf's row once per
// plane; testing a leaf entry's liveness visits nothing, like anyLive.
func (st *State) Visited() int64 { return st.visited }

// Peers returns the peers of a, sorted ascending.
func (g *Graph) Peers(a topology.ASN) []topology.ASN {
	return g.nbr[g.provEnd[a]:g.peerEnd[a]]
}
