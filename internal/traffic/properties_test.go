package traffic

import (
	"math/rand"
	"testing"

	"stamp/internal/bgp"
	"stamp/internal/sim"
	"stamp/internal/testkit"
	"stamp/internal/topology"
)

// TestBGPMatchesStaticRoutes: the event-driven simulator must converge to
// the unique stable Gao-Rexford solution computed analytically, AS paths
// included. This pins the decision process, export policy, and message
// machinery all at once.
func TestBGPMatchesStaticRoutes(t *testing.T) {
	g := genGraph(t, 250, 41)
	for _, dest := range []topology.ASN{0, 17, 133, 249} {
		in := newInstance(BGP, g, sim.DefaultParams(), 5, dest, nil)
		if _, err := in.e.Run(); err != nil {
			t.Fatal(err)
		}
		want := testkit.StaticRoutes(g, dest)
		for a := 0; a < g.Len(); a++ {
			best := in.bgpNodes[a].Sp.Best()
			switch {
			case topology.ASN(a) == dest:
				if best == nil || !best.Origin {
					t.Errorf("dest %d: origin route missing", dest)
				}
			case best == nil:
				if want[a] != nil {
					t.Errorf("dest %d: AS %d has no route, static says %v", dest, a, want[a])
				}
			default:
				if len(best.Path) != len(want[a]) {
					t.Errorf("dest %d: AS %d path %v, static %v", dest, a, best.Path, want[a])
					continue
				}
				for i := range want[a] {
					if best.Path[i] != want[a][i] {
						t.Errorf("dest %d: AS %d path %v, static %v", dest, a, best.Path, want[a])
						break
					}
				}
			}
		}
	}
}

// TestValleyFreeInvariant: no converged route, in any protocol, may
// violate valley-free policy.
func TestValleyFreeInvariant(t *testing.T) {
	g := genGraph(t, 200, 43)
	dest := topology.ASN(11)
	for _, proto := range AllProtocols() {
		in := newInstance(proto, g, sim.DefaultParams(), 7, dest, nil)
		if _, err := in.e.Run(); err != nil {
			t.Fatal(err)
		}
		check := func(as topology.ASN, r *bgp.Route) {
			if r == nil || r.Origin {
				return
			}
			full := append([]topology.ASN{as}, r.Path...)
			if !testkit.PathValleyFree(g, full) {
				t.Errorf("%v: AS %d best path %v violates valley-free", proto, as, full)
			}
		}
		for a := 0; a < g.Len(); a++ {
			v := topology.ASN(a)
			switch proto {
			case BGP:
				check(v, in.bgpNodes[a].Sp.Best())
			case RBGPNoRCI, RBGP:
				check(v, in.rbgpNodes[a].Sp.Best())
			case STAMP:
				check(v, in.stampNodes[a].Red.Best())
				check(v, in.stampNodes[a].Blue.Best())
			}
		}
	}
}

// TestStampBluePathGuarantee: the Lock mechanism must deliver a blue
// route to every AS after convergence (§4.2: "a blue path will always
// exist").
func TestStampBluePathGuarantee(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := genGraph(t, 300, seed)
		dest := topology.ASN(rand.New(rand.NewSource(seed)).Intn(g.Len()))
		in := newInstance(STAMP, g, sim.DefaultParams(), seed, dest, nil)
		if _, err := in.e.Run(); err != nil {
			t.Fatal(err)
		}
		missing := 0
		for a := 0; a < g.Len(); a++ {
			if in.stampNodes[a].Blue.Best() == nil {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("seed %d dest %d: %d ASes lack a blue route", seed, dest, missing)
		}
	}
}

// TestStampDownhillDisjoint probes Theorem 4.1: whenever an AS holds both
// red and blue routes, the two paths should be node-disjoint in their
// downhill portions (modulo the destination-side single-homed chain,
// which footnote 4 exempts by construction).
//
// Reproduction finding: the theorem does NOT hold universally under the
// protocol as specified. An AS on the locked blue chain can also attract
// red routes through its customer cone (red climbs a different sub-path
// into it); customers selecting both routes through that AS then share it
// in both downhill portions. The paper's own evaluation is consistent
// with imperfect protection (STAMP still has 357 affected ASes in Figure
// 2), so we assert the property statistically and log the violation rate.
func TestStampDownhillDisjoint(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		g := genGraph(t, 300, seed)
		dest := topology.ASN(13)
		in := newInstance(STAMP, g, sim.DefaultParams(), seed, dest, nil)
		if _, err := in.e.Run(); err != nil {
			t.Fatal(err)
		}
		// The destination-side single-homed chain (footnote 4): both
		// colors necessarily traverse it.
		exempt := map[topology.ASN]bool{dest: true}
		v := dest
		for !g.IsMultihomed(v) && len(g.Providers(v)) == 1 {
			v = g.Providers(v)[0]
			exempt[v] = true
		}

		violations, pairs := 0, 0
		for a := 0; a < g.Len(); a++ {
			if topology.ASN(a) == dest {
				continue
			}
			r, b := in.stampNodes[a].Red.Best(), in.stampNodes[a].Blue.Best()
			if r == nil || b == nil || r.Origin || b.Origin {
				continue
			}
			pairs++
			rp := append([]topology.ASN{topology.ASN(a)}, r.Path...)
			bp := append([]topology.ASN{topology.ASN(a)}, b.Path...)
			rd, err := testkit.DownhillNodes(g, rp)
			if err != nil {
				t.Fatalf("red path not valley-free: %v", err)
			}
			bd, err := testkit.DownhillNodes(g, bp)
			if err != nil {
				t.Fatalf("blue path not valley-free: %v", err)
			}
			shared := map[topology.ASN]bool{}
			for _, x := range rd {
				shared[x] = true
			}
			for _, x := range bd {
				if shared[x] && !exempt[x] && x != topology.ASN(a) {
					violations++
					break
				}
			}
		}
		rate := float64(violations) / float64(pairs)
		t.Logf("seed %d: %d/%d route pairs (%.1f%%) share a downhill node", seed, violations, pairs, 100*rate)
		if rate > 0.15 {
			t.Errorf("seed %d: downhill disjointness violated for %.1f%% of ASes, want <= 15%%", seed, 100*rate)
		}
	}
}

// TestLemma31RouteAddition: a route addition event (new prefix
// origination) must cause no transient loops, and no AS that already had
// a route may lose it. ASes acquiring their first route are not
// "transient failures".
func TestLemma31RouteAddition(t *testing.T) {
	g := genGraph(t, 300, 47)
	dest := topology.ASN(29)
	in := newInstance(BGP, g, sim.DefaultParams(), 3, dest, nil)

	n := g.Len()
	hadRoute := make([]bool, n)
	problems := 0
	var w Walk
	check := func() {
		in.classify(&w)
		for a := 0; a < n; a++ {
			switch w.Status[a] {
			case Loop:
				problems++
			case Blackhole:
				if hadRoute[a] {
					problems++
				}
			case Delivered:
				hadRoute[a] = true
			}
		}
	}
	in.watch(check, nil)
	// newInstance already originated; events are queued but not run.
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}
	if problems > 0 {
		t.Errorf("route addition caused %d transient problems, lemma 3.1 expects 0", problems)
	}
}

// TestLemma32UphillWithdrawal: failing a link strictly in the uphill
// portion of an AS's path must not cause transient loops or blackholes at
// that AS (its replacement candidates are provider routes it can switch
// to consistently).
func TestLemma32UphillWithdrawal(t *testing.T) {
	g := genGraph(t, 300, 53)
	dest := topology.ASN(7)
	static := testkit.StaticRoutes(g, dest)

	// Find an AS whose path has at least two uphill hops, and fail the
	// second uphill link (strictly above the source).
	var src topology.ASN = -1
	var fail [2]topology.ASN
	for a := 0; a < g.Len(); a++ {
		path := static[a]
		if len(path) < 3 {
			continue
		}
		full := append([]topology.ASN{topology.ASN(a)}, path...)
		split, err := testkit.SplitPath(g, full)
		if err != nil {
			continue
		}
		if split.UphillEnd >= 2 {
			src = topology.ASN(a)
			fail = [2]topology.ASN{full[1], full[2]}
			break
		}
	}
	if src < 0 {
		t.Skip("no AS with a two-hop uphill segment in this topology")
	}

	in := newInstance(BGP, g, sim.DefaultParams(), 9, dest, nil)
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}
	srcProblems := 0
	t0 := in.e.Now()
	detectBy := t0 + sim.DefaultParams().MaxDelay
	var w Walk
	in.watch(func() {
		if in.e.Now() <= detectBy {
			// Theorem 5.1 accounting: the detection window is excluded.
			return
		}
		in.classify(&w)
		if w.Status[src] != Delivered {
			srcProblems++
		}
	}, nil)
	if err := in.FailLink(fail[0], fail[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}
	if srcProblems > 0 {
		t.Errorf("uphill link failure caused %d transient problems at source %d (lemma 3.2 expects 0)", srcProblems, src)
	}
}

// TestStampRedBlueNeverSameProvider checks the selective announcement
// invariant at multi-provider ASes in steady state: red and blue are not
// both announced to the same provider (the overlap after a lock re-pick
// is the single documented exception, not exercised here).
func TestStampRedBlueNeverSameProvider(t *testing.T) {
	g := genGraph(t, 300, 59)
	dest := topology.ASN(101)
	in := newInstance(STAMP, g, sim.DefaultParams(), 11, dest, nil)
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < g.Len(); a++ {
		nd := in.stampNodes[a]
		provs := g.Providers(topology.ASN(a))
		if len(provs) < 2 {
			continue
		}
		for _, p := range provs {
			r := nd.Red.Desired(p).Route
			b := nd.Blue.Desired(p).Route
			if r != nil && b != nil {
				t.Errorf("AS %d announces both colors to provider %d", a, p)
			}
		}
	}
}

// TestStampLockedChainReachesTier1 follows the locked blue announcements
// up from the origin and checks they reach a tier-1 AS.
func TestStampLockedChainReachesTier1(t *testing.T) {
	g := genGraph(t, 300, 61)
	dest := topology.ASN(55)
	in := newInstance(STAMP, g, sim.DefaultParams(), 13, dest, nil)
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}
	v := dest
	for hop := 0; hop < g.Len(); hop++ {
		if g.IsTier1(v) {
			return // reached the top: guarantee holds
		}
		nd := in.stampNodes[v]
		next := topology.ASN(-1)
		for _, p := range g.Providers(v) {
			out := nd.Blue.Desired(p)
			if out.Route != nil && out.Route.Lock {
				next = p
				break
			}
		}
		if next < 0 {
			t.Fatalf("locked blue chain breaks at AS %d (no locked announcement to any provider)", v)
		}
		v = next
	}
	t.Fatal("locked chain did not terminate")
}

// TestConvergenceAllProtocols: every protocol's engine drains (safety)
// across several random topologies and destinations.
func TestConvergenceAllProtocols(t *testing.T) {
	for _, seed := range []int64{71, 73} {
		g := genGraph(t, 250, seed)
		dest := topology.ASN(seed % 250)
		for _, proto := range AllProtocols() {
			p := sim.DefaultParams()
			p.MaxEvents = 5_000_000
			in := newInstance(proto, g, p, seed, dest, nil)
			if _, err := in.e.Run(); err != nil {
				t.Errorf("%v seed %d: %v", proto, seed, err)
			}
		}
	}
}
