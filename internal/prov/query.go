package prov

// Tail returns the newest min(n, Len) entries in append order (oldest
// of the tail first). Allocates the result; query path only.
func (j *Journal) Tail(n int) []Entry {
	if j == nil || n <= 0 {
		return nil
	}
	return j.ring.AppendSince(nil, j.ring.Last()-uint64(min(n, j.Len())))
}

// Latest returns the newest retained entry for (plane, as): per the
// journal invariant, the AS's current route in that plane. ok is false
// when no entry is retained — the AS has held its route untouched since
// Reset, or its history was evicted. The first query after the
// journal changed rebuilds the (plane, AS) index in O(cap); later ones
// are O(1).
func (j *Journal) Latest(plane int, as int32) (Entry, bool) {
	if j == nil || j.ring.Last() == 0 || int(int8(plane)) != plane {
		return Entry{}, false
	}
	if slot, ok := j.find(int8(plane), as); ok {
		return *j.ring.At(slot), true
	}
	return Entry{}, false
}

// Chain reconstructs the causal chain explaining plane's current route
// at as: the latest entry for as, then the latest entry for its next
// hop, and so on backward along NewNext until the origin (NewNext -2)
// or a routeless terminal. A hop with no retained entry ends the walk:
// it has held its route since Reset, or, once Evicted() > 0, its
// history may be evicted, which truncated reports; either way the
// returned prefix is correct but may be incomplete.
//
// Correctness rests on the journal invariant: each hop's latest entry
// is its current route, and current routes at a settled fixpoint form
// a forest rooted at the origin (dist strictly decreases hop by hop),
// so the walk terminates. The step bound is a defensive cycle guard,
// not a correctness requirement. Each hop is one Latest, so once the
// index is current a walk costs O(hops), not O(hops × cap).
func (j *Journal) Chain(plane int, as int32) (chain []Entry, truncated bool) {
	if j == nil {
		return nil, false
	}
	cur := as
	for steps := 0; steps <= j.Len(); steps++ {
		e, ok := j.Latest(plane, cur)
		if !ok {
			return chain, j.Evicted() > 0
		}
		chain = append(chain, e)
		if e.NewKind == 0 || e.NewNext < 0 {
			return chain, false
		}
		cur = e.NewNext
	}
	// Latest entries pointed in a cycle — only reachable when eviction
	// destroyed the invariant's history; report the walk as truncated.
	return chain, true
}
