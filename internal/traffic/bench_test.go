package traffic

import (
	"testing"

	"stamp/internal/topology"
)

// BenchmarkTrafficWalk measures the packet engine's hot path: one full
// multi-source classification of a 1000-AS forwarding snapshot, batched
// (memoized, flat arrays — every walk state resolved once) vs naive
// (per-packet hop-by-hop walking, the literal model). Two regimes: a
// converged snapshot (short paths, where the naive model is adequate)
// and a transient one with a routing loop between two tier-1s — the
// snapshots the engine actually samples during failures, where naive
// walking pays O(n) per looping source and the memoized walker's
// O(states) bound is what keeps dense tick sampling cheap. The report
// metric is packet-walks per second.
func BenchmarkTrafficWalk(b *testing.B) {
	g, err := topology.GenerateDefault(1000, 9) // the root package's benchGraph
	if err != nil {
		b.Fatal(err)
	}
	n := g.Len()
	dest := topology.ASN(-1)
	for a := 0; a < n; a++ {
		if g.IsMultihomed(topology.ASN(a)) {
			dest = topology.ASN(a)
			break
		}
	}
	routes := topology.StaticRoutes(g, dest)
	next := make([]int32, n)
	for a := 0; a < n; a++ {
		switch {
		case topology.ASN(a) == dest:
			next[a] = int32(a)
		case routes[a] == nil:
			next[a] = -1
		default:
			next[a] = int32(routes[a][0])
		}
	}
	// The transient variant mimics mutual staleness during a withdrawal
	// wave: two tier-1s point at each other, so every source whose path
	// crosses either one loops.
	t1s := g.Tier1s()
	if len(t1s) < 2 {
		b.Fatal("bench topology has fewer than two tier-1s")
	}
	looped := append([]int32(nil), next...)
	looped[t1s[0]], looped[t1s[1]] = int32(t1s[1]), int32(t1s[0])

	var out Walk
	for _, snap := range []struct {
		name string
		next []int32
	}{{"converged", next}, {"transient-loop", looped}} {
		b.Run(snap.name+"/batched", func(b *testing.B) {
			var w Walker
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.WalkSingle(snap.next, int32(dest), &out)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "walks/s")
		})
		b.Run(snap.name+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NaiveWalkSingle(snap.next, int32(dest), &out)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "walks/s")
		})
		// The same tables as R-BGP primaries. Converged, the failover
		// view is never consulted; on the transient snapshot each
		// tier-1 bounces the other's packets and deflects them onto its
		// pre-staleness route, so the crossing sources deliver pinned.
		b.Run(snap.name+"/rbgp", func(b *testing.B) {
			var w Walker
			var fo Failover = staticFailover{routes} // boxed once, not per walk
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.WalkRBGP(snap.next, int32(dest), fo, &out)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "walks/s")
		})
	}
}

// staticFailover is a Failover over converged routes: an AS
// deflects onto its own stable path unless that path crosses the
// neighbor the packet came from, and every link is up.
type staticFailover struct{ routes [][]topology.ASN }

func (f staticFailover) Deflect(as, prev topology.ASN) []topology.ASN {
	for _, hop := range f.routes[as] {
		if hop == prev {
			return nil
		}
	}
	return f.routes[as]
}

func (f staticFailover) LinkUp(a, b topology.ASN) bool { return true }
