package prov

import "sort"

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
// when no entry is retained — the AS has been routeless and untouched
// since Reset, or its history was evicted. The first query after the
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
// or a routeless terminal. truncated reports that the walk hit a hop
// whose history the ring has already evicted (only possible once
// Evicted() > 0), so the returned prefix is correct but incomplete.
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

// EventDiff summarizes which ASes changed during one event: the LAST
// retained entry per (plane, AS) within that event, sorted by plane
// then AS. An AS cleared by a cascade and re-learned in the same event
// contributes its final entry only. Entries of the event that were
// already evicted are silently absent; check Evicted() against the
// event's seq range when completeness matters.
func (j *Journal) EventDiff(event uint64) []Entry {
	if j == nil || j.ring.Last() == 0 {
		return nil
	}
	type key struct {
		plane int8
		as    int32
	}
	last := make(map[key]Entry)
	for seq := j.ring.Oldest(); seq <= j.ring.Last(); seq++ {
		e := j.ring.Get(seq)
		if e.Event != event {
			continue
		}
		last[key{e.Plane, e.AS}] = *e
	}
	out := make([]Entry, 0, len(last))
	for _, e := range last {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Plane != out[b].Plane {
			return out[a].Plane < out[b].Plane
		}
		return out[a].AS < out[b].AS
	})
	return out
}

// EventChanged counts the distinct (plane, AS) pairs touched by one
// event — the journal-side view of EventCost.Changed.
func (j *Journal) EventChanged(event uint64) int {
	return len(j.EventDiff(event))
}
