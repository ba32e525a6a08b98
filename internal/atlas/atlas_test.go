package atlas

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stamp/internal/scenario"
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
	// DegreeOrder is degree-descending with ascending-id ties.
	ord := g.DegreeOrder()
	if len(ord) != g.Len() {
		t.Fatalf("DegreeOrder len %d", len(ord))
	}
	for i := 1; i < len(ord); i++ {
		di, dj := g.Degree(ord[i-1]), g.Degree(ord[i])
		if di < dj || (di == dj && ord[i-1] >= ord[i]) {
			t.Fatalf("DegreeOrder violated at %d: AS %d (deg %d) before AS %d (deg %d)", i, ord[i-1], di, ord[i], dj)
		}
	}
}

// csrFingerprint hashes every array freeze produces: the row bounds,
// the group boundaries, the neighbor column with each entry's
// relationship (read back through Rel) and the degree order.
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
	put(int64(len(g.byDegree)))
	for _, a := range g.byDegree {
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
		want := topology.StaticRoutes(tg, dest)
		for a := 0; a < g.Len(); a++ {
			has := st.curKind[planeBGP][a] != kindNone
			if has != (want[a] != nil) {
				t.Fatalf("dest %d AS %d: atlas reachable=%v, static=%v", dest, a, has, want[a] != nil)
			}
			if !has || topology.ASN(a) == dest {
				continue
			}
			next := g.nbr[st.curVia[planeBGP][a]]
			if next != want[a][0] {
				t.Fatalf("dest %d AS %d: atlas next %d, static %d", dest, a, next, want[a][0])
			}
			if int(st.curDist[planeBGP][a]) != len(want[a]) {
				t.Fatalf("dest %d AS %d: atlas dist %d, static %d", dest, a, st.curDist[planeBGP][a], len(want[a]))
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
			bgpHas := st.curKind[planeBGP][a] != kindNone
			stampHas := st.curKind[planeRed][a] != kindNone || st.curKind[planeBlue][a] != kindNone
			if bgpHas != stampHas {
				t.Fatalf("dest %d AS %d: bgp reachable=%v but red∪blue=%v", dest, a, bgpHas, stampHas)
			}
		}
		// Every chain member has a blue route, and the chain's locked
		// providers heard blue.
		for _, v := range st.chain {
			if st.curKind[planeBlue][v] == kindNone {
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
	if st.curKind[planeRed][nY] == kindNone || st.curKind[planeBlue][nY] != kindNone {
		t.Fatalf("fixture broken: Y should be red-only (red=%d blue=%d)",
			st.curKind[planeRed][nY], st.curKind[planeBlue][nY])
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
