package traffic

import (
	"fmt"
	"math/rand"
	"testing"

	"stamp/internal/bgp"
	"stamp/internal/topology"
)

// randSingle builds a random single-plane snapshot: a mix of delivery
// chains, loops, blackholes, and self-delivering origins.
func randSingle(rng *rand.Rand, n int) ([]int32, int32) {
	next := make([]int32, n)
	for v := range next {
		switch rng.Intn(10) {
		case 0:
			next[v] = -1 // no route
		case 1:
			next[v] = int32(v) // local delivery
		default:
			next[v] = int32(rng.Intn(n))
		}
	}
	return next, int32(rng.Intn(n))
}

// TestWalkSingleEquivalence: the batched walker must agree with both the
// callback classifier (the semantic reference) and the naive per-packet
// walker on random snapshots.
func TestWalkSingleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var walker Walker
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		next, dest := randSingle(rng, n)

		var batched, naive Walk
		walker.WalkSingle(next, dest, &batched)
		NaiveWalkSingle(next, dest, &naive)
		var ref Walk
		oracleSingle(n, topology.ASN(dest), tableNextHop(next), &ref)

		ctx := fmt.Sprintf("trial %d (next=%v dest=%d)", trial, next, dest)
		sameWalk(t, "batched "+ctx, &batched, &ref)
		sameWalk(t, "naive "+ctx, &naive, &ref)
	}
}

// TestForwardingRules: hand-built snapshots pin each forwarding rule —
// hop counts on delivery, loops, blackholes, local delivery at the
// origin, and STAMP's switch-once rule — on the flat walker and the
// reference walk alike. STAMP sources all prefer red.
func TestForwardingRules(t *testing.T) {
	const x = -1 // no usable route
	for _, tc := range []struct {
		name      string
		dest      int32
		next      []int32 // single-plane cases
		red, blue []int32 // STAMP cases
		unstable  []bool  // STAMP: red flagged unstable (nil: none)
		both      bool    // STAMP: blue flagged wherever red is
		want      []Status
		hops      []int32
	}{
		{name: "SingleDelivery", dest: 2, next: []int32{1, 2, x},
			want: []Status{Delivered, Delivered, Delivered}, hops: []int32{2, 1, 0}},
		{name: "SingleLoop", dest: 3, next: []int32{1, 0, 0, x},
			want: []Status{Loop, Loop, Loop, Delivered}, hops: []int32{NoHops, NoHops, NoHops, 0}},
		{name: "SingleBlackhole", dest: 2, next: []int32{1, x, x},
			want: []Status{Blackhole, Blackhole, Delivered}, hops: []int32{NoHops, NoHops, 0}},
		// An AS naming itself is the origin: local delivery.
		{name: "SingleSelfDelivery", dest: 1, next: []int32{0, x},
			want: []Status{Delivered, Delivered}, hops: []int32{0, 0}},
		// 0's red reaches 1, whose red is gone: switch to blue there.
		{name: "StampSwitchOnce", dest: 2, red: []int32{1, x, x}, blue: []int32{x, 2, x},
			want: []Status{Delivered, Delivered, Delivered}, hops: []int32{2, 1, 0}},
		// Having switched to blue at 1, a packet may not switch back to
		// red at 2.
		{name: "StampSecondSwitchForbidden", dest: 3, red: []int32{1, x, 3, x}, blue: []int32{x, 2, x, x},
			want: []Status{Blackhole, Blackhole, Delivered, Delivered}, hops: []int32{NoHops, NoHops, 1, 0}},
		// 0's red is flagged and would loop; its stable blue delivers.
		{name: "StampUnstableSwitch", dest: 2, red: []int32{1, 0, x}, blue: []int32{2, x, x},
			unstable: []bool{true, false, false},
			want:     []Status{Delivered, Delivered, Delivered}, hops: []int32{1, 2, 0}},
		// Both colors flagged but red has a route: "either process that
		// still has a route can be used" — no pointless switch.
		{name: "StampBothUnstableKeepsRoute", dest: 2, red: []int32{1, 2, x}, blue: []int32{1, 2, x},
			unstable: []bool{true, false, false}, both: true,
			want: []Status{Delivered, Delivered, Delivered}, hops: []int32{2, 1, 0}},
		{name: "StampLoopDetected", dest: 2, red: []int32{1, 0, x}, blue: []int32{x, x, x},
			want: []Status{Loop, Loop, Delivered}, hops: []int32{NoHops, NoHops, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.want)
			var w Walker
			var got, ref Walk
			if tc.next != nil {
				w.WalkSingle(tc.next, tc.dest, &got)
				oracleSingle(n, topology.ASN(tc.dest), tableNextHop(tc.next), &ref)
			} else {
				tables := StampTables{NextRed: tc.red, NextBlue: tc.blue,
					UnstableRed: make([]bool, n), UnstableBlue: make([]bool, n), Pref: make([]uint8, n)}
				copy(tables.UnstableRed, tc.unstable)
				if tc.both {
					copy(tables.UnstableBlue, tc.unstable)
				}
				w.WalkStamp(tables, tc.dest, &got)
				oracleStamp(n, topology.ASN(tc.dest), stampSnapView{tables}, &ref)
			}
			want := &Walk{Status: tc.want, Hops: tc.hops}
			sameWalk(t, "walker", &got, want)
			sameWalk(t, "reference", &ref, want)
		})
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Delivered: "delivered", Loop: "loop", Blackhole: "blackhole"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// randStamp builds a random STAMP snapshot.
func randStamp(rng *rand.Rand, n int) (StampTables, int32) {
	t := StampTables{
		NextRed:      make([]int32, n),
		NextBlue:     make([]int32, n),
		UnstableRed:  make([]bool, n),
		UnstableBlue: make([]bool, n),
		Pref:         make([]uint8, n),
	}
	fill := func(next []int32) {
		for v := range next {
			switch rng.Intn(10) {
			case 0, 1:
				next[v] = -1
			case 2:
				next[v] = int32(v)
			default:
				next[v] = int32(rng.Intn(n))
			}
		}
	}
	fill(t.NextRed)
	fill(t.NextBlue)
	for v := 0; v < n; v++ {
		t.UnstableRed[v] = rng.Intn(4) == 0
		t.UnstableBlue[v] = rng.Intn(4) == 0
		t.Pref[v] = uint8(rng.Intn(2))
	}
	return t, int32(rng.Intn(n))
}

// stampSnapView adapts a flat snapshot to the reference walk's stampView.
type stampSnapView struct{ t StampTables }

func (s stampSnapView) NextHop(as topology.ASN, c bgp.Color) (topology.ASN, bool) {
	next := s.t.NextRed
	if c == bgp.ColorBlue {
		next = s.t.NextBlue
	}
	if next[as] < 0 {
		return 0, false
	}
	return topology.ASN(next[as]), true
}
func (s stampSnapView) Unstable(as topology.ASN, c bgp.Color) bool {
	if c == bgp.ColorBlue {
		return s.t.UnstableBlue[as]
	}
	return s.t.UnstableRed[as]
}
func (s stampSnapView) Preferred(as topology.ASN) bgp.Color {
	return bgp.Color(s.t.Pref[as])
}

// TestWalkStampEquivalence: batched == naive == oracleStamp
// on random color-plane snapshots.
func TestWalkStampEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var walker Walker
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(50)
		tables, dest := randStamp(rng, n)

		var batched, naive Walk
		walker.WalkStamp(tables, dest, &batched)
		NaiveWalkStamp(tables, dest, &naive)
		var ref Walk
		oracleStamp(n, topology.ASN(dest), stampSnapView{tables}, &ref)

		sameWalk(t, fmt.Sprintf("batched trial %d", trial), &batched, &ref)
		sameWalk(t, fmt.Sprintf("naive trial %d", trial), &naive, &ref)
	}
}

// fakeFailover is a synthetic Failover: per-AS candidate failover
// paths, of which Deflect picks the first that avoids the arriving
// neighbor (so the outcome of a deflection genuinely depends on it, as
// with live nodes), and a set of dead links.
type fakeFailover struct {
	paths [][][]topology.ASN
	dead  map[[2]int32]bool

	deflects, deadHits int // what the walks exercised
}

func (f *fakeFailover) Deflect(as, prev topology.ASN) []topology.ASN {
	f.deflects++
next:
	for _, p := range f.paths[as] {
		for _, hop := range p {
			if hop == prev {
				continue next
			}
		}
		return p
	}
	return nil
}

func (f *fakeFailover) LinkUp(a, b topology.ASN) bool {
	if f.dead[pk(int32(a), int32(b))] {
		f.deadHits++
		return false
	}
	return true
}

// randRBGP builds a random R-BGP snapshot on top of randSingle's primary
// table (delivery chains, cycles of every length, missing primaries,
// self-delivering origins): a few 2-cycles are forced in, since mutual
// staleness is the case R-BGP's bounce rule exists for, every AS gets up
// to two random failover paths ending at the destination, and a tenth of
// the links those paths cross are dead.
func randRBGP(rng *rand.Rand, n int) ([]int32, int32, *fakeFailover) {
	primary, dest := randSingle(rng, n)
	for i := rng.Intn(3); i > 0; i-- {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a != b {
			primary[a], primary[b] = b, a
		}
	}
	f := &fakeFailover{paths: make([][][]topology.ASN, n), dead: map[[2]int32]bool{}}
	for v := range f.paths {
		for i := rng.Intn(3); i > 0; i-- {
			path := make([]topology.ASN, 0, 4)
			for j := rng.Intn(3); j > 0; j-- {
				path = append(path, topology.ASN(rng.Intn(n)))
			}
			path = append(path, topology.ASN(dest))
			cur := int32(v)
			for _, hop := range path {
				if rng.Intn(10) == 0 {
					f.dead[pk(cur, int32(hop))] = true
				}
				cur = int32(hop)
			}
			f.paths[v] = append(f.paths[v], path)
		}
	}
	return primary, dest, f
}

// hashCost is a link cost that needs no table: latency and loss are
// functions of the endpoint pair.
type hashCost struct{}

func (hashCost) LinkLatMs(a, b int32) float64 {
	k := pk(a, b)
	return 1 + float64((k[0]*31+k[1]*17)%23)
}
func (hashCost) LinkLossRate(a, b int32) float64 {
	k := pk(a, b)
	return float64((k[0]*7+k[1]*13)%5) / 50
}

// TestWalkRBGPEquivalence: the flat per-AS-memoized walker must agree
// with the (AS, arriving neighbor)-keyed reference walk — status, hops,
// and with a cost model latency and loss, bit for bit — on random
// snapshots, and the fixture must actually contain the cases the per-AS
// memo argument is about.
func TestWalkRBGPEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	plain, costed := Walker{}, Walker{Cost: hashCost{}}
	var twoCycles, longLoops, missing, selfLoops, deflects, deadHits int
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(60)
		primary, dest, fo := randRBGP(rng, n)
		for v, nh := range primary {
			switch {
			case nh < 0:
				missing++
			case nh == int32(v):
				selfLoops++
			case primary[nh] == int32(v) && int32(v) < nh:
				twoCycles++
			}
		}

		var flat, ref Walk
		plain.WalkRBGP(primary, dest, fo, &flat)
		oracleRBGP(n, topology.ASN(dest), snapRBGP{primary, fo}, nil, &ref)
		sameWalk(t, fmt.Sprintf("trial %d (primary=%v dest=%d)", trial, primary, dest), &flat, &ref)
		for _, s := range ref.Status {
			if s == Loop {
				longLoops++ // 2-cycles bounce, so any Loop is a cycle of 3+
			}
		}

		var flatC, refC Walk
		costed.WalkRBGP(primary, dest, fo, &flatC)
		oracleRBGP(n, topology.ASN(dest), snapRBGP{primary, fo}, hashCost{}, &refC)
		sameWalk(t, fmt.Sprintf("trial %d with cost (primary=%v dest=%d)", trial, primary, dest), &flatC, &refC)
		sameWalk(t, fmt.Sprintf("trial %d: cost model changed classification", trial),
			&Walk{Status: flatC.Status, Hops: flatC.Hops}, &flat)
		deflects, deadHits = deflects+fo.deflects, deadHits+fo.deadHits
	}
	for name, count := range map[string]int{
		"2-cycles": twoCycles, "sources looping in cycles of 3+": longLoops, "missing primaries": missing,
		"origin self-loops": selfLoops, "deflections": deflects, "pinned paths over dead links": deadHits,
	} {
		if count < 100 {
			t.Errorf("fixture covers only %d %s", count, name)
		}
	}
}

// deflectTo23 is a four-AS failover view in which the listed ASes
// deflect onto the path [2, 3] and nobody else has a failover.
func deflectTo23(ases ...int) *fakeFailover {
	f := &fakeFailover{paths: make([][][]topology.ASN, 4), dead: map[[2]int32]bool{}}
	for _, a := range ases {
		f.paths[a] = [][]topology.ASN{{2, 3}}
	}
	return f
}

func TestWalkRBGPDeflection(t *testing.T) {
	// 0 -> 1, 1 has no primary and deflects onto path [2, 3].
	var w Walker
	var out Walk
	w.WalkRBGP([]int32{1, -1, -1, 3}, 3, deflectTo23(1), &out)
	if out.Status[0] != Delivered {
		t.Errorf("status[0] = %v, want delivered via deflection", out.Status[0])
	}
	// 0 -> 1, then pinned over [2, 3]: three hops total.
	if out.Hops[0] != 3 {
		t.Errorf("hops[0] = %d, want 3 (one primary hop + two pinned)", out.Hops[0])
	}
	if out.Status[2] != Blackhole { // 2 has no primary and no deflection
		t.Errorf("status[2] = %v, want blackhole", out.Status[2])
	}
}

func TestWalkRBGPPinnedPathDies(t *testing.T) {
	// 1 deflects onto [2, 3] but link 2-3 is down: pinned packet dies.
	f := deflectTo23(1)
	f.dead[pk(2, 3)] = true
	var w Walker
	var out Walk
	w.WalkRBGP([]int32{1, -1, -1, 3}, 3, f, &out)
	if out.Status[0] != Blackhole {
		t.Errorf("status[0] = %v, want blackhole on dead pinned path", out.Status[0])
	}
}

func TestWalkRBGPBounceTriggersDeflect(t *testing.T) {
	// 0 and 1 point at each other (mutual staleness). 1 deflects packets
	// from 0 onto [2, 3]; 0 deflects packets from 1 the same way.
	var w Walker
	var out Walk
	w.WalkRBGP([]int32{1, 0, -1, 3}, 3, deflectTo23(0, 1), &out)
	if out.Status[0] != Delivered || out.Status[1] != Delivered {
		t.Errorf("statuses = %v, want mutual bounce resolved by deflection", out.Status)
	}
	if out.Hops[0] != 3 || out.Hops[1] != 3 {
		t.Errorf("hops = %v, want 3 for both (one hop to the bouncer + two pinned)", out.Hops)
	}
}

// TestWalkersSteadyStateAllocs: once a Walker's scratch has grown to
// the snapshot size, a walk allocates nothing — with and without a cost
// model, on all three walkers.
func TestWalkersSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 200
	next, sdest := randSingle(rng, n)
	tables, tdest := randStamp(rng, n)
	primary, rdest, fo := randRBGP(rng, n)
	for _, w := range []*Walker{{}, {Cost: hashCost{}}} {
		var out Walk
		for name, walk := range map[string]func(){
			"WalkSingle": func() { w.WalkSingle(next, sdest, &out) },
			"WalkStamp":  func() { w.WalkStamp(tables, tdest, &out) },
			"WalkRBGP":   func() { w.WalkRBGP(primary, rdest, fo, &out) },
		} {
			walk() // grow the scratch
			if allocs := testing.AllocsPerRun(50, walk); allocs != 0 {
				t.Errorf("%s (cost model: %v): %v allocs per walk in the steady state, want 0", name, w.Cost != nil, allocs)
			}
		}
	}
}

// TestWalkerScratchReuse: back-to-back walks on the same Walker must not
// leak state between snapshots.
func TestWalkerScratchReuse(t *testing.T) {
	var walker Walker
	// First: everything delivers through 1 -> 2 (dest).
	var a Walk
	walker.WalkSingle([]int32{1, 2, 2}, 2, &a)
	if a.Delivered() != 3 {
		t.Fatalf("first walk delivered %d, want 3", a.Delivered())
	}
	// Second, same walker: 0 and 1 now loop.
	var b Walk
	walker.WalkSingle([]int32{1, 0, 2}, 2, &b)
	if b.Status[0] != Loop || b.Status[1] != Loop {
		t.Errorf("scratch leaked: second walk = %v", b.Status)
	}
	if b.Status[2] != Delivered {
		t.Errorf("dest = %v, want delivered", b.Status[2])
	}
}
