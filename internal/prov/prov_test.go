package prov

import (
	"sort"
	"testing"
)

// note is a test shorthand: record a change to (kind, dist, next) at
// as, with prev taken from the journal's own latest entry so chains
// stay self-consistent.
func note(j *Journal, round int32, cause Cause, as int32, kind int8, dist, next int32) {
	pk, pd, pv := int8(0), int32(0), int32(-1)
	if e, ok := j.Latest(int(j.plane), as); ok {
		pk, pd, pv = e.NewKind, e.NewDist, e.NewNext
	}
	j.Note(as, round, cause, pk, pd, pv, kind, dist, next)
}

func TestJournalCounters(t *testing.T) {
	j := NewJournal(4)
	if j.Len() != 0 || j.Appends() != 0 || j.Evicted() != 0 || j.LastSeq() != 0 || j.OldestSeq() != 0 {
		t.Fatalf("fresh journal not empty: len %d appends %d evicted %d", j.Len(), j.Appends(), j.Evicted())
	}
	j.BeginWindow(1, false)
	for i := int32(0); i < 6; i++ {
		note(j, 1, CauseSeedFrontier, i, 1, i, -2)
	}
	if j.Len() != 4 || j.Cap() != 4 {
		t.Fatalf("len %d cap %d, want 4/4", j.Len(), j.Cap())
	}
	if j.Appends() != 6 || j.Evicted() != 2 {
		t.Fatalf("appends %d evicted %d, want 6/2", j.Appends(), j.Evicted())
	}
	if j.LastSeq() != 6 || j.OldestSeq() != 3 {
		t.Fatalf("seq range [%d, %d], want [3, 6]", j.OldestSeq(), j.LastSeq())
	}
	// Evicted ASes 0 and 1 are gone; 2..5 retained.
	if _, ok := j.Latest(1, 0); ok {
		t.Fatal("evicted entry still visible")
	}
	e, ok := j.Latest(1, 5)
	if !ok || e.Seq != 6 || e.Plane != 1 || e.NewDist != 5 {
		t.Fatalf("latest(1,5) = %+v ok=%v", e, ok)
	}
	j.Reset()
	if j.Len() != 0 || j.Evicted() != 0 || j.Event() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if j.Cap() != 4 {
		t.Fatal("Reset dropped the ring slab")
	}
}

func TestJournalEventsAndWindowCause(t *testing.T) {
	j := NewJournal(8)
	if j.Event() != 0 {
		t.Fatal("initial convergence must be event 0")
	}
	if got := j.BeginEvent(); got != 1 {
		t.Fatalf("first BeginEvent = %d, want 1", got)
	}
	j.BeginWindow(2, false)
	if c := j.WindowCause(0); c != CauseSeedFrontier {
		t.Fatalf("round 0 cause %v", c)
	}
	if c := j.WindowCause(1); c != CauseSeedFrontier {
		t.Fatalf("round 1 cause %v", c)
	}
	if c := j.WindowCause(4); c != CauseNeighborAdvert {
		t.Fatalf("round 4 cause %v", c)
	}
	j.BeginWindow(2, true)
	if c := j.WindowCause(7); c != CauseReroot {
		t.Fatalf("reroot window cause %v", c)
	}
	note(j, 0, j.WindowCause(0), 3, 1, 2, 9)
	e, _ := j.Latest(2, 3)
	if e.Event != 1 || e.Cause != CauseReroot || e.Plane != 2 {
		t.Fatalf("staged context not stamped: %+v", e)
	}
}

func TestChainWalk(t *testing.T) {
	j := NewJournal(64)
	j.BeginWindow(0, false)
	// Origin 0; 1 via 0; 2 via 1; 3 routeless after a withdraw.
	note(j, 0, CauseSeedFrontier, 0, 1, 0, -2)
	note(j, 1, CauseSeedFrontier, 1, 1, 1, 0)
	note(j, 2, CauseNeighborAdvert, 2, 3, 2, 1)
	note(j, 1, CauseSeedFrontier, 3, 3, 3, 2)
	j.BeginEvent()
	j.BeginWindow(0, false)
	note(j, 1, CauseSeedFrontier, 3, 0, 0, -1)

	chain, trunc := j.Chain(0, 2)
	if trunc {
		t.Fatal("unexpected truncation")
	}
	if len(chain) != 3 || chain[0].AS != 2 || chain[1].AS != 1 || chain[2].AS != 0 {
		t.Fatalf("chain ASes wrong: %+v", chain)
	}
	if chain[2].NewNext != -2 {
		t.Fatal("chain must terminate at the origin entry")
	}
	for i := 0; i+1 < len(chain); i++ {
		if chain[i].NewNext != chain[i+1].AS {
			t.Fatalf("hop %d next %d != hop %d AS %d", i, chain[i].NewNext, i+1, chain[i+1].AS)
		}
		if chain[i].NewDist <= chain[i+1].NewDist {
			t.Fatalf("dist not strictly decreasing toward origin: %+v", chain)
		}
	}
	// Routeless AS: single terminal entry, its latest New is none.
	chain, trunc = j.Chain(0, 3)
	if trunc || len(chain) != 1 || chain[0].NewKind != 0 || chain[0].Event != 1 {
		t.Fatalf("routeless chain: %+v trunc=%v", chain, trunc)
	}
	// Untouched AS on a complete journal: empty, NOT truncated.
	chain, trunc = j.Chain(0, 42)
	if len(chain) != 0 || trunc {
		t.Fatalf("untouched AS: chain %v trunc %v", chain, trunc)
	}
	// Nil journal is a no-op.
	var nilJ *Journal
	if c, tr := nilJ.Chain(0, 0); c != nil || tr {
		t.Fatal("nil journal Chain must be empty")
	}
}

func TestChainTruncatedByEviction(t *testing.T) {
	j := NewJournal(2)
	j.BeginWindow(0, false)
	note(j, 0, CauseSeedFrontier, 0, 1, 0, -2)
	note(j, 1, CauseSeedFrontier, 1, 1, 1, 0)
	note(j, 2, CauseNeighborAdvert, 2, 1, 2, 1) // evicts AS 0's entry
	chain, trunc := j.Chain(0, 2)
	if !trunc {
		t.Fatal("walk through an evicted hop must report truncation")
	}
	if len(chain) != 2 || chain[0].AS != 2 || chain[1].AS != 1 {
		t.Fatalf("truncated prefix wrong: %+v", chain)
	}
}

func TestEventDiff(t *testing.T) {
	j := NewJournal(64)
	j.BeginWindow(0, false)
	note(j, 0, CauseSeedFrontier, 0, 1, 0, -2)
	note(j, 1, CauseSeedFrontier, 1, 1, 1, 0)
	ev := j.BeginEvent()
	j.BeginWindow(1, false)
	// AS 7 cleared by cascade then re-learned in the same event: the
	// diff must carry only the final entry.
	note(j, 0, CauseCascade, 7, 0, 0, -1)
	note(j, 2, CauseNeighborAdvert, 7, 2, 4, 1)
	j.BeginWindow(2, false)
	note(j, 1, CauseSeedFrontier, 5, 1, 3, 0)

	diff := j.EventDiff(ev)
	if len(diff) != 2 {
		t.Fatalf("EventDiff len %d, want 2: %+v", len(diff), diff)
	}
	if diff[0].Plane != 1 || diff[0].AS != 7 || diff[0].NewKind != 2 {
		t.Fatalf("diff[0] must be AS 7's final entry: %+v", diff[0])
	}
	if diff[1].Plane != 2 || diff[1].AS != 5 {
		t.Fatalf("diff[1]: %+v", diff[1])
	}
	if j.EventChanged(ev) != 2 {
		t.Fatal("EventChanged disagrees with EventDiff")
	}
	if j.EventChanged(0) != 2 {
		t.Fatalf("event 0 (initial convergence) changed %d, want 2", j.EventChanged(0))
	}
	if j.EventChanged(99) != 0 {
		t.Fatal("unknown event must be empty")
	}
}

func TestTail(t *testing.T) {
	j := NewJournal(4)
	j.BeginWindow(0, false)
	for i := int32(0); i < 6; i++ {
		note(j, 1, CauseSeedFrontier, i, 1, i, -2)
	}
	tail := j.Tail(3)
	if len(tail) != 3 || tail[0].Seq != 4 || tail[2].Seq != 6 {
		t.Fatalf("Tail(3): %+v", tail)
	}
	if got := j.Tail(99); len(got) != 4 {
		t.Fatalf("Tail over len returned %d entries", len(got))
	}
	if j.Tail(0) != nil {
		t.Fatal("Tail(0) must be nil")
	}
	var nilJ *Journal
	if nilJ.Tail(5) != nil {
		t.Fatal("nil Tail must be nil")
	}
}

// TestNilJournal: every method is a no-op on a nil receiver — the
// engine's hot-loop guards rely on it.
func TestNilJournal(t *testing.T) {
	var j *Journal
	j.Reset()
	if j.BeginEvent() != 0 {
		t.Fatal("nil BeginEvent")
	}
	j.BeginWindow(1, true)
	j.Note(1, 1, CauseSeedFrontier, 0, 0, -1, 1, 1, 0)
	if j.Len() != 0 || j.Cap() != 0 || j.Appends() != 0 || j.Evicted() != 0 ||
		j.LastSeq() != 0 || j.OldestSeq() != 0 || j.Event() != 0 {
		t.Fatal("nil counters must be zero")
	}
	if _, ok := j.Latest(0, 0); ok {
		t.Fatal("nil Latest")
	}
	if j.EventDiff(0) != nil || j.EventChanged(0) != 0 {
		t.Fatal("nil EventDiff")
	}
}

// TestNoteDoesNotAllocate pins the hot-loop contract directly at the
// package boundary (the atlas-level gate is TestIncrementalHotLoopAllocs).
func TestNoteDoesNotAllocate(t *testing.T) {
	j := NewJournal(1 << 10)
	j.BeginWindow(1, false)
	var as int32
	allocs := testing.AllocsPerRun(1000, func() {
		j.Note(as, 1, CauseSeedFrontier, 0, 0, -1, 1, 3, 7)
		as++
	})
	if allocs != 0 {
		t.Fatalf("Note allocates %v per op", allocs)
	}
}

func TestCauseString(t *testing.T) {
	for c, want := range map[Cause]string{
		causeNone:           "none",
		CauseSeedFrontier:   "seed-frontier",
		CauseNeighborAdvert: "neighbor-advert",
		CauseCascade:        "cascade-invalidation",
		CauseReroot:         "reroot",
		Cause(250):          "cause(250)",
	} {
		if got := c.String(); got != want {
			t.Errorf("Cause(%d).String() = %q, want %q", uint8(c), got, want)
		}
	}
}

// OldestSeq returns the oldest retained Seq (0 when empty).
func (j *Journal) OldestSeq() uint64 {
	if j == nil {
		return 0
	}
	return min(j.ring.Evicted()+1, j.ring.Last())
}

// Cap returns the ring capacity.
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return j.ring.Cap()
}

// EventChanged counts the distinct (plane, AS) pairs touched by one
// event — the journal-side view of EventCost.Changed.
func (j *Journal) EventChanged(event uint64) int {
	return len(j.EventDiff(event))
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
	for seq := j.OldestSeq(); seq <= j.ring.Last(); seq++ {
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
