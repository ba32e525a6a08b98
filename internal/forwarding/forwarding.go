// Package forwarding classifies the data plane of a converging routing
// system: for every AS it decides whether a packet originated there would
// currently be delivered to the destination, caught in a forwarding loop,
// or blackholed — and, for delivered packets, how many AS hops the
// delivery took, so harnesses can report path stretch instead of
// discarding it. The classifiers implement the paper's forwarding models:
// plain next-hop walking for BGP and color-aware walking with the
// switch-once rule for STAMP (§5.1).
//
// These walkers are callback-driven and allocate per call; the batched
// flat-array walkers in internal/traffic cover the same semantics on the
// packet-injection hot path and are equivalence-tested against these.
// R-BGP's failover forwarding has only the flat implementation
// (traffic.Walker.WalkRBGP); its (AS, arriving neighbor)-keyed reference
// walk lives in that package's tests.
package forwarding

import (
	"stamp/internal/bgp"
	"stamp/internal/topology"
)

// Status is the data-plane outcome for a packet source.
type Status uint8

const (
	// Delivered means the packet reaches the destination.
	Delivered Status = iota
	// Loop means the packet enters a forwarding loop.
	Loop
	// Blackhole means the packet reaches an AS with no usable route.
	Blackhole
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Delivered:
		return "delivered"
	case Loop:
		return "loop"
	case Blackhole:
		return "blackhole"
	}
	return "unknown"
}

// Result is the data-plane outcome for one packet source: its status
// plus, when delivered, the AS-level hop count of the path the packet
// actually took (0 for the destination itself, -1 for packets that never
// arrive).
type Result struct {
	Status Status
	Hops   int32
}

// NoHops marks a hop count with no meaning (looped or blackholed).
const NoHops int32 = -1

// Internal walk states: 0 unknown, 1 visiting, then done statuses offset
// by doneBase.
const (
	stUnknown  uint8 = 0
	stVisiting uint8 = 1
	doneBase   uint8 = 2
)

// onward extends a next hop's outcome by one hop.
func onward(r Result) Result {
	if r.Status == Delivered {
		return Result{Delivered, r.Hops + 1}
	}
	return r
}

// ClassifySingle walks the next-hop graph of a single-process protocol
// (plain BGP). nextHop returns the forwarding neighbor of an AS (ok false
// when it has no usable route; returning the AS itself means locally
// delivered). The result has one outcome per AS.
//
// Memoization is sound because forwarding is deterministic: the outcome
// from any AS is a function of the AS alone.
func ClassifySingle(n int, dest topology.ASN, nextHop func(topology.ASN) (topology.ASN, bool)) []Result {
	state := make([]uint8, n)
	hops := make([]int32, n)
	var walk func(v topology.ASN) Result
	walk = func(v topology.ASN) Result {
		if s := state[v]; s >= doneBase {
			return Result{Status(s - doneBase), hops[v]}
		} else if s == stVisiting {
			return Result{Loop, NoHops}
		}
		state[v] = stVisiting
		var r Result
		nh, ok := nextHop(v)
		switch {
		case v == dest:
			r = Result{Delivered, 0}
		case !ok:
			r = Result{Blackhole, NoHops}
		case nh == v:
			r = Result{Delivered, 0}
		default:
			r = onward(walk(nh))
		}
		state[v] = doneBase + uint8(r.Status)
		hops[v] = r.Hops
		return r
	}
	out := make([]Result, n)
	for v := 0; v < n; v++ {
		out[v] = walk(topology.ASN(v))
	}
	return out
}

// StampState is the per-AS view the STAMP walker needs.
type StampState interface {
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

// ClassifyStamp walks STAMP's color-aware data plane. A packet carries a
// color and may switch to the other color at most once (§5.1): it
// switches when the current color has no usable route, or when the
// current color is unstable and the other color has a stable route.
func ClassifyStamp(n int, dest topology.ASN, st StampState) []Result {
	// Flattened state: ((v*2)+color)*2 + switched.
	state := make([]uint8, n*4)
	hops := make([]int32, n*4)
	idx := func(v topology.ASN, c bgp.Color, switched bool) int {
		i := int(v)*4 + int(c)*2
		if switched {
			i++
		}
		return i
	}

	var walk func(cur topology.ASN, c bgp.Color, switched bool) Result
	walk = func(cur topology.ASN, c bgp.Color, switched bool) Result {
		if cur == dest {
			return Result{Delivered, 0}
		}
		k := idx(cur, c, switched)
		if s := state[k]; s >= doneBase {
			return Result{Status(s - doneBase), hops[k]}
		} else if s == stVisiting {
			return Result{Loop, NoHops}
		}
		state[k] = stVisiting

		nh, ok := st.NextHop(cur, c)
		other := c.Other()
		onh, ook := st.NextHop(cur, other)
		var r Result
		switch {
		case ok && (switched || !st.Unstable(cur, c) || !ook || st.Unstable(cur, other)):
			// Keep the current color: it works and either looks stable,
			// or no better option exists ("either process that still has
			// a route can be used" when both saw ET=0).
			if nh == cur {
				r = Result{Delivered, 0}
			} else {
				r = onward(walk(nh, c, switched))
			}
		case !switched && ook:
			// Switch once to the other color.
			if onh == cur {
				r = Result{Delivered, 0}
			} else {
				r = onward(walk(onh, other, true))
			}
		case ok:
			if nh == cur {
				r = Result{Delivered, 0}
			} else {
				r = onward(walk(nh, c, switched))
			}
		default:
			r = Result{Blackhole, NoHops}
		}

		state[k] = doneBase + uint8(r.Status)
		hops[k] = r.Hops
		return r
	}

	out := make([]Result, n)
	for v := 0; v < n; v++ {
		out[v] = walk(topology.ASN(v), st.Preferred(topology.ASN(v)), false)
	}
	return out
}

// Affected merges a classification into an accumulator of ASes that have
// experienced any transient problem, returning the number newly marked.
func Affected(acc []bool, results []Result) int {
	marked := 0
	for i, r := range results {
		if r.Status != Delivered && !acc[i] {
			acc[i] = true
			marked++
		}
	}
	return marked
}

// CountNot returns how many entries differ from want.
func CountNot(results []Result, want Status) int {
	c := 0
	for _, r := range results {
		if r.Status != want {
			c++
		}
	}
	return c
}

// MeanStretch returns the mean ratio of current to baseline hop counts
// over sources delivered in both classifications with a nonzero baseline
// (ok false when no source qualifies). A value of 1 means re-convergence
// restored paths as short as before the event.
func MeanStretch(base, cur []Result) (float64, bool) {
	sum, n := 0.0, 0
	for i := range cur {
		if i >= len(base) {
			break
		}
		if cur[i].Status != Delivered || base[i].Status != Delivered || base[i].Hops <= 0 {
			continue
		}
		sum += float64(cur[i].Hops) / float64(base[i].Hops)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
