package traffic

import (
	"stamp/internal/forwarding"
	"stamp/internal/topology"
)

// The batched walkers classify every source of a forwarding-table
// snapshot in one pass over flat arrays. Memoization is per walk state
// (one state per AS for single-plane protocols and for R-BGP, four per
// AS for STAMP's (color, switched) planes): each state is resolved
// exactly once, so a whole-topology classification is O(states)
// regardless of how many sources funnel through the same paths — the
// property that lets the traffic engine sample snapshots densely. The
// walk is iterative with an explicit chain stack (no recursion, no
// per-call closures); scratch buffers live in the Walker and are reused
// across ticks, so the steady state allocates nothing.

// Walk states: unknown, on the current chain, or done (doneBase+status).
const (
	wUnknown uint8 = 0
	wOnStack uint8 = 1
	wDone    uint8 = 2
)

// LinkCost is the optional link-quality model the walkers consult to
// report end-to-end path latency and loss alongside delivery. The
// steering subsystem's latency model (internal/steer.Model) implements
// it; a nil Cost keeps the walkers on the delivery-only fast path.
type LinkCost interface {
	// LinkLatMs is the current latency of link a--b in milliseconds
	// (baseline × any degradation multiplier).
	LinkLatMs(a, b int32) float64
	// LinkLossRate is the current gray-loss rate of link a--b in [0, 1).
	LinkLossRate(a, b int32) float64
}

// NoLat marks a source with no delivered path in Walk.LatMs.
const NoLat = float32(-1)

// Walker holds the scratch buffers of the batched walkers. The zero
// value is ready to use; a Walker is not goroutine-safe.
type Walker struct {
	// Cost, when non-nil, attaches a link-quality model: walks
	// additionally accumulate per-source path latency and loss into
	// Walk.LatMs/LossP. Memoized like hops, so the cost path stays
	// 0 allocs/op in the steady state.
	Cost LinkCost

	state []uint8
	hops  []int32
	stack []int32
	lat   []float32
	surv  []float32
}

// scratch returns zeroed state and hop buffers of length n.
func (w *Walker) scratch(n int) ([]uint8, []int32) {
	if cap(w.state) < n {
		w.state = make([]uint8, n)
		w.hops = make([]int32, n)
	}
	w.state = w.state[:n]
	w.hops = w.hops[:n]
	for i := range w.state {
		w.state[i] = wUnknown
	}
	return w.state, w.hops
}

// costScratch returns latency/survival buffers of length n. No zeroing:
// entries are written before they are read (only delivered states are
// ever consulted, and each is written when resolved).
func (w *Walker) costScratch(n int) ([]float32, []float32) {
	if cap(w.lat) < n {
		w.lat = make([]float32, n)
		w.surv = make([]float32, n)
	}
	return w.lat[:n], w.surv[:n]
}

// unwind resolves every state on the chain stack with the terminal
// outcome, incrementing hops per chain link on delivery, and returns the
// emptied stack. With a cost model attached (lat/surv non-nil),
// delivered chains also accumulate latency and survival link by link
// from the terminal state termID upward; div maps state ids to node
// indices (1 for single-plane walks, 4 for STAMP's (color, switched)
// states).
func (w *Walker) unwind(stack []int32, st []uint8, hp []int32, lat, surv []float32, term forwarding.Status, termHops, termID, div int32) []int32 {
	done := wDone + uint8(term)
	prev := termID
	for i := len(stack) - 1; i >= 0; i-- {
		u := stack[i]
		if term == forwarding.Delivered {
			termHops++
			hp[u] = termHops
			if lat != nil {
				a, b := u/div, prev/div
				lat[u] = lat[prev] + float32(w.Cost.LinkLatMs(a, b))
				surv[u] = surv[prev] * float32(1-w.Cost.LinkLossRate(a, b))
				prev = u
			}
		} else {
			hp[u] = forwarding.NoHops
		}
		st[u] = done
	}
	return stack[:0]
}

// WalkSingle classifies all sources of a single-plane snapshot: next[v]
// is AS v's forwarding neighbor, -1 when it has no usable route, and v
// itself for local delivery at the origin. Semantically identical to
// forwarding.ClassifySingle (equivalence-tested).
func (w *Walker) WalkSingle(next []int32, dest int32, out *Walk) {
	n := len(next)
	out.reset(n)
	st, hp := w.scratch(n)
	var lat, surv []float32
	if w.Cost != nil {
		lat, surv = w.costScratch(n)
	}
	stack := w.stack[:0]
	for src := 0; src < n; src++ {
		v := int32(src)
		if st[v] >= wDone {
			continue
		}
		var term forwarding.Status
		var termHops int32
	chain:
		for {
			switch s := st[v]; {
			case s >= wDone:
				term, termHops = forwarding.Status(s-wDone), hp[v]
				break chain
			case s == wOnStack:
				term, termHops = forwarding.Loop, forwarding.NoHops
				break chain
			}
			nh := next[v]
			switch {
			case v == dest, nh == v:
				st[v], hp[v] = wDone+uint8(forwarding.Delivered), 0
				if lat != nil {
					lat[v], surv[v] = 0, 1
				}
				term, termHops = forwarding.Delivered, 0
				break chain
			case nh < 0:
				st[v], hp[v] = wDone+uint8(forwarding.Blackhole), forwarding.NoHops
				term, termHops = forwarding.Blackhole, forwarding.NoHops
				break chain
			}
			st[v] = wOnStack
			stack = append(stack, v)
			v = nh
		}
		stack = w.unwind(stack, st, hp, lat, surv, term, termHops, v, 1)
	}
	w.stack = stack
	for v := 0; v < n; v++ {
		out.Status[v] = forwarding.Status(st[v] - wDone)
		out.Hops[v] = hp[v]
	}
	if w.Cost != nil {
		out.resetCost(n)
		for v := 0; v < n; v++ {
			if out.Status[v] == forwarding.Delivered {
				out.LatMs[v], out.LossP[v] = lat[v], 1-surv[v]
			} else {
				out.LatMs[v], out.LossP[v] = NoLat, 1
			}
		}
	}
}

// Failover is the part of R-BGP's forwarding state the walker consults
// by callback instead of through a table: it is needed only where
// hop-by-hop primary forwarding ends, at most once per AS and arriving
// neighbor. RBGPView adapts live nodes to it.
type Failover interface {
	// Deflect returns the failover AS path a packet deflected at as
	// (arriving from prev, -1 if locally sourced) is pinned to, from the
	// first next hop to the destination, or nil when none is available.
	Deflect(as, prev topology.ASN) []topology.ASN
	// LinkUp reports link liveness along pinned failover paths.
	LinkUp(a, b topology.ASN) bool
}

// WalkRBGP classifies all sources of an R-BGP snapshot: primary[v] is AS
// v's decision-process next hop, -1 when it has none usable, and v
// itself at the origin. Forwarding is hop-by-hop along primaries until
// a packet would be dropped or bounced back to the neighbor it came
// from; there it is deflected onto the local failover path and pinned
// to it (R-BGP forwards deflected packets along the advertised failover
// path, which also prevents deflection loops). A pinned packet is
// delivered iff every link of the failover path is alive — with RCI,
// stale failover paths crossing failed links have been purged, so
// deflection almost always succeeds; without RCI the packet can be
// pinned onto a dead path.
//
// Forwarding looks at the arriving neighbor, yet one memoized state per
// AS suffices: the neighbor matters only where the primary is missing
// or points back at it, and there the packet is pinned — an outcome
// computed on the spot that never re-enters the walk. Everywhere else
// the outcome from an AS is a function of the AS alone, and a cycle of
// three or more primaries is a loop whichever neighbor a packet enters
// it from. State 2v holds the outcome of packets sourced at v; state
// 2v+1 is scratch for a packet deflected at v on arrival from the
// chain's previous AS, rewritten on every such arrival. The result is
// that of the (AS, arriving neighbor)-keyed reference walk
// (equivalence-tested).
func (w *Walker) WalkRBGP(primary []int32, dest int32, fo Failover, out *Walk) {
	n := len(primary)
	out.reset(n)
	st, hp := w.scratch(2 * n)
	var lat, surv []float32
	if w.Cost != nil {
		lat, surv = w.costScratch(2 * n)
	}
	stack := w.stack[:0]
	for src := 0; src < n; src++ {
		if st[2*src] >= wDone {
			continue
		}
		v, prev := int32(src), int32(-1)
		var id int32
		var term forwarding.Status
		var termHops int32
	chain:
		for {
			id = 2 * v
			nh := primary[v]
			switch {
			case v == dest, nh == v:
				st[id], hp[id] = wDone+uint8(forwarding.Delivered), 0
				if lat != nil {
					lat[id], surv[id] = 0, 1
				}
				term, termHops = forwarding.Delivered, 0
				break chain
			case nh < 0, nh == prev:
				if prev >= 0 {
					id++
				}
				term, termHops = w.walkPinned(v, fo.Deflect(topology.ASN(v), topology.ASN(prev)), fo, lat, surv, id)
				st[id], hp[id] = wDone+uint8(term), termHops
				break chain
			}
			switch s := st[id]; {
			case s >= wDone:
				term, termHops = forwarding.Status(s-wDone), hp[id]
				break chain
			case s == wOnStack:
				term, termHops = forwarding.Loop, forwarding.NoHops
				break chain
			}
			st[id] = wOnStack
			stack = append(stack, id)
			prev, v = v, nh
		}
		stack = w.unwind(stack, st, hp, lat, surv, term, termHops, id, 2)
	}
	w.stack = stack
	for v := 0; v < n; v++ {
		out.Status[v] = forwarding.Status(st[2*v] - wDone)
		out.Hops[v] = hp[2*v]
	}
	if w.Cost != nil {
		out.resetCost(n)
		for v := 0; v < n; v++ {
			if out.Status[v] == forwarding.Delivered {
				out.LatMs[v], out.LossP[v] = lat[2*v], 1-surv[2*v]
			} else {
				out.LatMs[v], out.LossP[v] = NoLat, 1
			}
		}
	}
}

// walkPinned follows a failover AS path from AS from hop by hop,
// checking link liveness only: the packet is pinned to the path. With a
// cost model attached, a delivered path's latency and survival land in
// lat[id] and surv[id].
func (w *Walker) walkPinned(from int32, path []topology.ASN, fo Failover, lat, surv []float32, id int32) (forwarding.Status, int32) {
	if len(path) == 0 {
		return forwarding.Blackhole, forwarding.NoHops
	}
	cur := topology.ASN(from)
	var l float32
	s := float32(1)
	for _, next := range path {
		if !fo.LinkUp(cur, next) {
			return forwarding.Blackhole, forwarding.NoHops
		}
		if lat != nil {
			l += float32(w.Cost.LinkLatMs(int32(cur), int32(next)))
			s *= float32(1 - w.Cost.LinkLossRate(int32(cur), int32(next)))
		}
		cur = next
	}
	if lat != nil {
		lat[id], surv[id] = l, s
	}
	return forwarding.Delivered, int32(len(path))
}

// StampTables is the flat STAMP data-plane snapshot the batched walker
// consumes: per-color next hops (-1 no route, own index at the origin),
// per-color ET instability flags, and the color each AS stamps on
// locally sourced packets. internal/emu's DataPlane has the same shape
// for the live fabric.
type StampTables struct {
	NextRed, NextBlue         []int32
	UnstableRed, UnstableBlue []bool
	Pref                      []uint8 // 0 red, 1 blue
}

// stampState flattens (v, color, switched) into one state id.
func stampState(v int32, color uint8, switched bool) int32 {
	id := v*4 + int32(color)*2
	if switched {
		id++
	}
	return id
}

// WalkStamp classifies all sources of a STAMP snapshot under the
// switch-once rule: a packet keeps its color while that color has a
// usable route and either looks stable or no better option exists; it
// may switch to the other color at most once. Semantically identical to
// forwarding.ClassifyStamp (equivalence-tested).
func (w *Walker) WalkStamp(t StampTables, dest int32, out *Walk) {
	n := len(t.NextRed)
	out.reset(n)
	st, hp := w.scratch(n * 4)
	var lat, surv []float32
	if w.Cost != nil {
		lat, surv = w.costScratch(n * 4)
	}
	stack := w.stack[:0]
	// All four destination states deliver locally, whatever the tables
	// say (a packet sourced at the destination has arrived).
	for _, id := range [4]int32{dest * 4, dest*4 + 1, dest*4 + 2, dest*4 + 3} {
		st[id], hp[id] = wDone+uint8(forwarding.Delivered), 0
		if lat != nil {
			lat[id], surv[id] = 0, 1
		}
	}

	for src := 0; src < n; src++ {
		id := stampState(int32(src), t.Pref[src], false)
		if st[id] >= wDone {
			continue
		}
		var term forwarding.Status
		var termHops int32
	chain:
		for {
			switch s := st[id]; {
			case s >= wDone:
				term, termHops = forwarding.Status(s-wDone), hp[id]
				break chain
			case s == wOnStack:
				term, termHops = forwarding.Loop, forwarding.NoHops
				break chain
			}
			v := id / 4
			color := uint8(id/2) & 1
			switched := id&1 == 1

			next, onext := t.NextRed, t.NextBlue
			unst, ounst := t.UnstableRed[v], t.UnstableBlue[v]
			if color == 1 {
				next, onext = onext, next
				unst, ounst = ounst, unst
			}
			nh, onh := next[v], onext[v]
			ok, ook := nh >= 0, onh >= 0

			var to int32
			switch {
			case ok && (switched || !unst || !ook || ounst):
				// Keep the current color: it works and either looks
				// stable, or no better option exists.
				to = stampState(nh, color, switched)
			case !switched && ook:
				// Switch once to the other color.
				nh = onh
				to = stampState(onh, 1-color, true)
			case ok:
				to = stampState(nh, color, switched)
			default:
				st[id], hp[id] = wDone+uint8(forwarding.Blackhole), forwarding.NoHops
				term, termHops = forwarding.Blackhole, forwarding.NoHops
				break chain
			}
			if nh == v {
				st[id], hp[id] = wDone+uint8(forwarding.Delivered), 0
				if lat != nil {
					lat[id], surv[id] = 0, 1
				}
				term, termHops = forwarding.Delivered, 0
				break chain
			}
			st[id] = wOnStack
			stack = append(stack, id)
			id = to
		}
		stack = w.unwind(stack, st, hp, lat, surv, term, termHops, id, 4)
	}
	w.stack = stack
	for v := 0; v < n; v++ {
		id := stampState(int32(v), t.Pref[v], false)
		out.Status[v] = forwarding.Status(st[id] - wDone)
		out.Hops[v] = hp[id]
	}
	if w.Cost != nil {
		out.resetCost(n)
		for v := 0; v < n; v++ {
			id := stampState(int32(v), t.Pref[v], false)
			if out.Status[v] == forwarding.Delivered {
				out.LatMs[v], out.LossP[v] = lat[id], 1-surv[id]
			} else {
				out.LatMs[v], out.LossP[v] = NoLat, 1
			}
		}
	}
}
