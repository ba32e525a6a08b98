package traffic

import (
	"testing"

	"stamp/internal/forwarding"
	"stamp/internal/topology"
)

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
	r    forwarding.Result
	lat  float32
	surv float32
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
	undelivered := func(s forwarding.Status) oracleResult {
		return oracleResult{forwarding.Result{Status: s, Hops: forwarding.NoHops}, NoLat, 0}
	}
	link := func(r oracleResult, from, to topology.ASN) oracleResult {
		if r.r.Status != forwarding.Delivered {
			return r
		}
		r.r.Hops++
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
			return undelivered(forwarding.Blackhole)
		}
		r := oracleResult{forwarding.Result{Status: forwarding.Delivered}, 0, 1}
		// Accumulate forward from the deflecting AS, as a packet would.
		cur := from
		for _, next := range path {
			if !st.LinkUp(cur, next) {
				return undelivered(forwarding.Blackhole)
			}
			r = link(r, cur, next)
			cur = next
		}
		return r
	}
	var walk func(cur, prev topology.ASN) oracleResult
	walk = func(cur, prev topology.ASN) oracleResult {
		if cur == dest {
			return oracleResult{forwarding.Result{Status: forwarding.Delivered}, 0, 1}
		}
		k := key(cur, prev)
		switch state[k] {
		case done:
			return memo[k]
		case visiting:
			return undelivered(forwarding.Loop)
		}
		state[k] = visiting
		var r oracleResult
		nh, ok := st.Primary(cur)
		switch {
		case ok && nh == cur:
			r = oracleResult{forwarding.Result{Status: forwarding.Delivered}, 0, 1}
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
		out.Status[v], out.Hops[v] = r.r.Status, r.r.Hops
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
