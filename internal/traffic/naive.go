package traffic

// Naive per-packet walkers: each source is walked independently with no
// memoization, the way a literal packet-by-packet simulation would do
// it. They exist as the measured baseline for BenchmarkTrafficWalk and
// as an independent oracle in the walker equivalence tests — the batched
// walkers must produce identical outcomes while doing O(states) work
// instead of O(sources × path length).

// NaiveWalkSingle classifies every source of a single-plane snapshot by
// walking each packet hop by hop. A walk that takes more than n hops has
// revisited some AS and is a loop.
func NaiveWalkSingle(next []int32, dest int32, out *Walk) {
	n := len(next)
	out.reset(n)
	for src := 0; src < n; src++ {
		v := int32(src)
		var hops int32
		for {
			if v == dest || next[v] == v {
				out.Status[src], out.Hops[src] = Delivered, hops
				break
			}
			if next[v] < 0 {
				out.Status[src], out.Hops[src] = Blackhole, NoHops
				break
			}
			v = next[v]
			hops++
			if hops > int32(n) {
				out.Status[src], out.Hops[src] = Loop, NoHops
				break
			}
		}
	}
}

// NaiveWalkStamp classifies every source of a STAMP snapshot by walking
// each packet hop by hop under the switch-once rule. A walk longer than
// the 4n walk states has revisited one and is a loop.
func NaiveWalkStamp(t StampTables, dest int32, out *Walk) {
	n := len(t.NextRed)
	out.reset(n)
	for src := 0; src < n; src++ {
		v, color, switched := int32(src), t.Pref[src], false
		var hops int32
		for {
			if v == dest {
				out.Status[src], out.Hops[src] = Delivered, hops
				break
			}
			next, onext := t.NextRed, t.NextBlue
			unst, ounst := t.UnstableRed[v], t.UnstableBlue[v]
			if color == 1 {
				next, onext = onext, next
				unst, ounst = ounst, unst
			}
			nh, onh := next[v], onext[v]
			ok, ook := nh >= 0, onh >= 0

			var stop bool
			switch {
			case ok && (switched || !unst || !ook || ounst):
				// keep color
			case !switched && ook:
				nh, color, switched = onh, 1-color, true
			case ok:
				// keep color
			default:
				out.Status[src], out.Hops[src] = Blackhole, NoHops
				stop = true
			}
			if stop {
				break
			}
			if nh == v {
				out.Status[src], out.Hops[src] = Delivered, hops
				break
			}
			v = nh
			hops++
			if hops > int32(4*n) {
				out.Status[src], out.Hops[src] = Loop, NoHops
				break
			}
		}
	}
}
