package traffic

import (
	"testing"

	"stamp/internal/bgp"
	"stamp/internal/core"
	"stamp/internal/topology"
)

// The semantic references for the flat walkers: recursive classifiers
// that follow each protocol's forwarding rule literally, memoized per
// walk state. They were the production classifiers until the walkers
// replaced them, and they allocate per call.

// oracleSingle walks the next-hop graph of a single-process protocol
// (plain BGP). nextHop returns the forwarding neighbor of an AS (ok false
// when it has no usable route; returning the AS itself means locally
// delivered). Memoization is sound because forwarding is deterministic:
// the outcome from any AS is a function of the AS alone.
func oracleSingle(n int, dest topology.ASN, nextHop func(topology.ASN) (topology.ASN, bool), out *Walk) {
	const visiting, done = 1, 2
	state := make([]uint8, n)
	var walk func(v topology.ASN) (Status, int32)
	walk = func(v topology.ASN) (Status, int32) {
		switch state[v] {
		case done:
			return out.Status[v], out.Hops[v]
		case visiting:
			return Loop, NoHops
		}
		state[v] = visiting
		s, h := Blackhole, NoHops
		nh, ok := nextHop(v)
		switch {
		case v == dest, ok && nh == v:
			s, h = Delivered, 0
		case ok:
			if s, h = walk(nh); s == Delivered {
				h++
			}
		}
		state[v], out.Status[v], out.Hops[v] = done, s, h
		return s, h
	}
	out.reset(n)
	for v := 0; v < n; v++ {
		walk(topology.ASN(v))
	}
}

// tableNextHop reads a single-plane snapshot as oracleSingle's next-hop
// callback.
func tableNextHop(next []int32) func(topology.ASN) (topology.ASN, bool) {
	return func(v topology.ASN) (topology.ASN, bool) {
		if next[v] < 0 {
			return 0, false
		}
		return topology.ASN(next[v]), true
	}
}

// stampView is the per-AS view the reference STAMP walk needs.
type stampView interface {
	// NextHop returns the forwarding neighbor for color c (ok false when
	// that process has no usable route; the AS itself when it is the
	// destination origin).
	NextHop(as topology.ASN, c bgp.Color) (topology.ASN, bool)
	// Unstable reports whether color c's process at as is flagged
	// unstable per the ET mechanism.
	Unstable(as topology.ASN, c bgp.Color) bool
	// Preferred returns the color an AS stamps on packets it originates.
	Preferred(as topology.ASN) bgp.Color
}

// oracleStamp walks STAMP's color-aware data plane. A packet carries a
// color and may switch to the other color at most once (§5.1): it
// switches when the current color has no usable route, or when the
// current color is unstable and the other color has a stable route.
func oracleStamp(n int, dest topology.ASN, st stampView, out *Walk) {
	type key struct {
		v        topology.ASN
		c        bgp.Color
		switched bool
	}
	type result struct {
		s Status
		h int32
	}
	visiting := map[key]bool{}
	memo := map[key]result{}
	var walk func(k key) result
	walk = func(k key) result {
		if k.v == dest {
			return result{Delivered, 0}
		}
		if r, ok := memo[k]; ok {
			return r
		}
		if visiting[k] {
			return result{Loop, NoHops}
		}
		visiting[k] = true
		nh, ok := st.NextHop(k.v, k.c)
		other := bgp.ColorRed + bgp.ColorBlue - k.c
		onh, ook := st.NextHop(k.v, other)
		next := key{nh, k.c, k.switched}
		switch {
		case ok && (k.switched || !st.Unstable(k.v, k.c) || !ook || st.Unstable(k.v, other)):
			// Keep the current color: it works and either looks stable,
			// or no better option exists ("either process that still has
			// a route can be used" when both saw ET=0).
		case !k.switched && ook:
			next = key{onh, other, true} // switch once to the other color
		case !ok:
			next.v = -1
		}
		r := result{Blackhole, NoHops}
		switch {
		case next.v == k.v:
			r = result{Delivered, 0}
		case next.v >= 0:
			if r = walk(next); r.s == Delivered {
				r.h++
			}
		}
		memo[k] = r
		return r
	}
	out.reset(n)
	for v := 0; v < n; v++ {
		r := walk(key{topology.ASN(v), st.Preferred(topology.ASN(v)), false})
		out.Status[v], out.Hops[v] = r.s, r.h
	}
}

// liveStamp is the reference view of live STAMP nodes.
type liveStamp []*core.Node

func (l liveStamp) NextHop(as topology.ASN, c bgp.Color) (topology.ASN, bool) {
	return l[as].NextHop(c)
}
func (l liveStamp) Unstable(as topology.ASN, c bgp.Color) bool { return l[as].Unstable(c) }
func (l liveStamp) Preferred(as topology.ASN) bgp.Color        { return l[as].Preferred() }

// rbgpState is the per-AS view the reference R-BGP walk needs: the
// primary next hop by callback, plus the failover half the flat walker
// consults too.
type rbgpState interface {
	// Primary returns the AS's primary (decision process) next hop; ok is
	// false when there is none usable. The AS itself means destination.
	Primary(as topology.ASN) (topology.ASN, bool)
	Failover
}

// oracleResult is a classification outcome plus the path cost
// accumulated so far: end-to-end latency and survival probability (the
// chance a packet crosses every gray-lossy link), both valid only on
// delivery.
type oracleResult struct {
	status Status
	hops   int32
	lat    float32
	surv   float32
}

// oracleRBGP is the semantic reference for Walker.WalkRBGP: the
// recursive walk memoized per (current AS, previous AS) in maps, which
// was the production classifier until the flat walker replaced it. It
// follows the forwarding rule literally — every decision sees the
// arriving neighbor — and so does not depend on the argument that lets
// the flat walker memoize per AS. cost may be nil.
func oracleRBGP(n int, dest topology.ASN, st rbgpState, cost LinkCost, out *Walk) {
	state := make(map[int64]uint8)
	memo := make(map[int64]oracleResult)
	const visiting, done = 1, 2
	key := func(cur, prev topology.ASN) int64 {
		return int64(cur)*int64(n+1) + int64(prev) + 1
	}
	undelivered := func(s Status) oracleResult {
		return oracleResult{s, NoHops, NoLat, 0}
	}
	link := func(r oracleResult, from, to topology.ASN) oracleResult {
		if r.status != Delivered {
			return r
		}
		r.hops++
		if cost != nil {
			r.lat += float32(cost.LinkLatMs(int32(from), int32(to)))
			r.surv *= float32(1 - cost.LinkLossRate(int32(from), int32(to)))
		}
		return r
	}
	// pinned follows a failover AS path hop by hop, checking link
	// liveness only: the packet is pinned to the path.
	pinned := func(from topology.ASN, path []topology.ASN) oracleResult {
		if len(path) == 0 {
			return undelivered(Blackhole)
		}
		r := oracleResult{Delivered, 0, 0, 1}
		// Accumulate forward from the deflecting AS, as a packet would.
		cur := from
		for _, next := range path {
			if !st.LinkUp(cur, next) {
				return undelivered(Blackhole)
			}
			r = link(r, cur, next)
			cur = next
		}
		return r
	}
	var walk func(cur, prev topology.ASN) oracleResult
	walk = func(cur, prev topology.ASN) oracleResult {
		if cur == dest {
			return oracleResult{Delivered, 0, 0, 1}
		}
		k := key(cur, prev)
		switch state[k] {
		case done:
			return memo[k]
		case visiting:
			return undelivered(Loop)
		}
		state[k] = visiting
		var r oracleResult
		nh, ok := st.Primary(cur)
		switch {
		case ok && nh == cur:
			r = oracleResult{Delivered, 0, 0, 1}
		case ok && nh != prev:
			r = link(walk(nh, cur), cur, nh)
		default:
			r = pinned(cur, st.Deflect(cur, prev))
		}
		state[k], memo[k] = done, r
		return r
	}
	out.reset(n)
	if cost != nil {
		out.resetCost(n)
	}
	for v := 0; v < n; v++ {
		r := walk(topology.ASN(v), -1)
		out.Status[v], out.Hops[v] = r.status, r.hops
		if cost != nil {
			out.LatMs[v], out.LossP[v] = r.lat, 1-r.surv
		}
	}
}

// snapRBGP is a primary-table snapshot plus a failover view, as the
// oracle's state.
type snapRBGP struct {
	primary []int32
	Failover
}

func (s snapRBGP) Primary(as topology.ASN) (topology.ASN, bool) {
	if s.primary[as] < 0 {
		return 0, false
	}
	return topology.ASN(s.primary[as]), true
}

// liveRBGP reads the primaries off the live nodes at every call.
type liveRBGP struct{ RBGPView }

func (l liveRBGP) Primary(as topology.ASN) (topology.ASN, bool) { return l.Nodes[as].Primary() }

// sameWalk fails the test unless the two walks agree on every source:
// status, hops and — when either carries them — latency and loss, bit
// for bit.
func sameWalk(t *testing.T, ctx string, got, want *Walk) {
	t.Helper()
	if len(got.Status) != len(want.Status) || (got.LatMs == nil) != (want.LatMs == nil) {
		t.Fatalf("%s: walk shapes differ: %d sources/cost %v vs %d/cost %v",
			ctx, len(got.Status), got.LatMs != nil, len(want.Status), want.LatMs != nil)
	}
	for v := range want.Status {
		if got.Status[v] != want.Status[v] || got.Hops[v] != want.Hops[v] {
			t.Fatalf("%s: source %d = %v/%d hops, want %v/%d", ctx, v, got.Status[v], got.Hops[v], want.Status[v], want.Hops[v])
		}
		if want.LatMs != nil && (got.LatMs[v] != want.LatMs[v] || got.LossP[v] != want.LossP[v]) {
			t.Fatalf("%s: source %d = %vms/loss %v, want %vms/loss %v", ctx, v, got.LatMs[v], got.LossP[v], want.LatMs[v], want.LossP[v])
		}
	}
}
