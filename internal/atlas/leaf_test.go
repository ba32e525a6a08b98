package atlas

import (
	"fmt"
	"reflect"
	"testing"

	"stamp/internal/prov"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// leafGraph is a ten-AS graph built by hand around the leaf paths of a
// from-scratch convergence. Leaf destination D has two providers, P1
// (its blue lock: the lowest) and P2. L peers with P1, which holds a
// customer route to D on BGP and blue but not on red, because the
// locked provider receives no red: L's BGP and blue routes are peer
// routes, its red route a provider route (the chain-withheld case). W
// peers with P2, which is not locked, so W's blue route is a provider
// route. L2 is a leaf customer of both P1 and P2, X a transit customer
// of P2 with the leaf customer Y, and Y peers with L, a leaf with a leaf.
const (
	leafT  = 0 // tier 1
	leafP1 = 1
	leafP2 = 2
	leafD  = 3 // the destination, a leaf
	leafL  = 4
	leafL2 = 5
	leafX  = 6
	leafY  = 7
	leafU  = 8 // tier 1, peers with T
	leafW  = 9
)

func leafGraph(t *testing.T) *Graph {
	t.Helper()
	up, peer := int(topology.RelProvider), int(topology.RelPeer)
	b := &builder{n: 10}
	for _, l := range [][3]int{
		{leafP1, leafT, up}, {leafP2, leafT, up},
		{leafD, leafP1, up}, {leafD, leafP2, up},
		{leafL, leafT, up}, {leafL, leafP1, peer},
		{leafL2, leafP1, up}, {leafL2, leafP2, up},
		{leafX, leafP2, up}, {leafY, leafX, up}, {leafY, leafL, peer},
		{leafT, leafU, peer}, {leafW, leafU, up}, {leafW, leafP2, peer},
	} {
		b.addLink(topology.ASN(l[0]), topology.ASN(l[1]), topology.Rel(l[2]))
	}
	g, err := b.freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLeafSettlementEdgeCases holds the from-scratch path — customers
// reached by the transit index, every leaf routed on all three planes by
// one pass after blue's window, late leaves replayed from per-sender
// publication chains — to the map engine, whose loop reaches every AS,
// on leafGraph: a pristine convergence to the leaf destination, and
// convergences over a down leaf-provider link, a down leaf and a
// withdrawn origin, at several MRAI pacings. A bare state and a
// journaled one take the same path: they must report the same outcome,
// Visited, routes, advertisements and touched sets. Visited is pinned:
// it counts the entries the index reaches and each settled leaf's row
// once per plane, and a leaf entry, the destination's included, only
// has its liveness tested.
func TestLeafSettlementEdgeCases(t *testing.T) {
	g := leafGraph(t)
	if !g.leaf.has(leafD) || g.leaf.has(leafX) || !g.leaf.has(leafY) {
		t.Fatal("leafGraph: D and Y must be leaves, X not")
	}
	cases := []struct {
		name    string
		pre     []scenario.Event
		visited int64 // at every pacing
	}{
		{"pristine", nil, 92},
		{"down-leaf-provider-link", []scenario.Event{{Op: scenario.OpFailLink, A: leafL2, B: leafP1}}, 92},
		{"down-leaf", []scenario.Event{{Op: scenario.OpFailNode, Node: leafL2}}, 86},
		{"withdrawn-origin", []scenario.Event{{Op: scenario.OpWithdraw, Node: leafD}}, 57},
	}
	for _, params := range []Params{DefaultParams(), {MRAIRounds: NoMRAI}, {MRAIRounds: 3}} {
		eng, ref := NewEngine(g, params), NewMapEngine(g, params)
		bare, seen, mst := eng.NewState(), eng.NewState(), ref.NewState()
		seen.SetJournal(prov.NewJournal(1 << 10))
		for _, tc := range cases {
			name := fmt.Sprintf("MRAI %d %s", params.MRAIRounds, tc.name)
			for _, st := range []*State{bare, seen} {
				if err := eng.ConvergeScratch(st, leafD, tc.pre); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.ConvergeScratch(mst, leafD, tc.pre); err != nil {
				t.Fatal(err)
			}
			if vb, vj := bare.Visited(), seen.Visited(); vb != vj {
				t.Fatalf("%s: visited %d without a journal and %d with one", name, vb, vj)
			}
			ob, oj, om := eng.FinishDest(bare), eng.FinishDest(seen), ref.FinishDest(mst)
			if ob != oj || !reflect.DeepEqual(ob, om) {
				t.Fatalf("%s: outcomes differ\nbare:      %+v\njournaled: %+v\nmap:       %+v", name, ob, oj, om)
			}
			mustSameState(t, name, bare, seen)
			mustNoDiff(t, name+" flat-vs-map", bare, mst)
			if v := bare.Visited(); v != tc.visited {
				t.Errorf("%s: the convergence visited %d ASes and entries, want %d", name, v, tc.visited)
			}
		}
	}

	// The routes the graph is built for, on a pristine convergence.
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	if err := eng.InitDest(st, leafD); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		p    int
		a    int32
		kind int8
		next int32
	}{
		{planeBGP, leafL, kindPeer, leafP1},
		{planeRed, leafL, kindProvider, leafT},
		{planeBlue, leafL, kindPeer, leafP1},
		{planeRed, leafW, kindPeer, leafP2},
		{planeBlue, leafW, kindProvider, leafU},
		{planeBGP, leafL2, kindProvider, leafP1},
		{planeBGP, leafY, kindProvider, leafX},
	} {
		if kind, _, next := st.SnapshotRoute(want.p, want.a); kind != want.kind || next != want.next {
			t.Errorf("%s AS %d: kind %d via %d, want kind %d via %d", PlaneName(want.p), want.a, kind, next, want.kind, want.next)
		}
	}
}
