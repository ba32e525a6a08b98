package prov

import (
	"math/rand"
	"slices"
	"testing"
)

// scanLatest is the reference for Latest: a backward scan of the
// retained ring, newest entry first — the algorithm the index replaced.
func scanLatest(j *Journal, plane int, as int32) (Entry, bool) {
	for seq := j.LastSeq(); seq > j.Evicted(); seq-- {
		if e := j.ring.Get(seq); int(e.Plane) == plane && e.AS == as {
			return *e, true
		}
	}
	return Entry{}, false
}

// scanChain is Chain over scanLatest.
func scanChain(j *Journal, plane int, as int32) (chain []Entry, truncated bool) {
	cur := as
	for steps := 0; steps <= j.Len(); steps++ {
		e, ok := scanLatest(j, plane, cur)
		if !ok {
			return chain, j.Evicted() > 0
		}
		chain = append(chain, e)
		if e.NewKind == 0 || e.NewNext < 0 {
			return chain, false
		}
		cur = e.NewNext
	}
	return chain, true
}

// checkQueries compares Latest with the ring scan for a few random
// keys and the newest entry's key, and Chain for one of them.
func checkQueries(t *testing.T, j *Journal, rnd *rand.Rand, ases int32, step int) {
	t.Helper()
	type key struct {
		plane int
		as    int32
	}
	keys := []key{{rnd.Intn(3), rnd.Int31n(ases)}}
	if j.LastSeq() > 0 {
		e := j.ring.Get(j.LastSeq())
		keys = append(keys, key{int(e.Plane), e.AS})
	}
	if rnd.Intn(16) == 0 {
		// Planes no entry carries, including ones outside int8.
		keys = append(keys, key{3, 0}, key{-1, 0}, key{256, 0})
	}
	for _, k := range keys {
		got, gok := j.Latest(k.plane, k.as)
		want, wok := scanLatest(j, k.plane, k.as)
		if got != want || gok != wok {
			t.Fatalf("step %d: Latest(%d, %d) = %+v %v, ring scan %+v %v", step, k.plane, k.as, got, gok, want, wok)
		}
	}
	k := keys[rnd.Intn(len(keys))]
	gc, gt := j.Chain(k.plane, k.as)
	wc, wt := scanChain(j, k.plane, k.as)
	if !slices.Equal(gc, wc) || gt != wt {
		t.Fatalf("step %d: Chain(%d, %d) = %d hops trunc %v, ring scan %d hops trunc %v",
			step, k.plane, k.as, len(gc), gt, len(wc), wt)
	}
}

// TestIndexMatchesRingScan drives random BeginEvent/BeginWindow/Note/
// Reset streams through rings small enough to wrap many times and
// queries after every write, so each index path runs: the first build,
// a rebuild after appends, a rebuild after Reset, and reuse of a
// current index (two queries with no write between them).
func TestIndexMatchesRingScan(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64, 4096} {
		rnd := rand.New(rand.NewSource(int64(capacity)))
		j := NewJournal(capacity)
		// More keys than the ring holds, so histories are evicted while
		// others keep several generations of entries.
		ases := int32(capacity/2 + 3)
		writes := 40*capacity + 400
		if capacity >= 1024 {
			writes = 5 * capacity / 2
		}
		var wraps uint64
		for step := 0; step < writes; step++ {
			switch r := rnd.Intn(100); {
			case rnd.Intn(8*capacity+40) == 0:
				// Rare enough that the ring still fills between Resets.
				wraps = max(wraps, j.Appends()/uint64(capacity))
				j.Reset()
			case r < 3:
				j.BeginEvent()
			case r < 10:
				j.BeginWindow(rnd.Intn(3), rnd.Intn(4) == 0)
			default:
				// Next hops point at smaller ids (or the origin / none),
				// so current routes form a forest and chains stay short.
				as := rnd.Int31n(ases)
				kind, dist, next := int8(1+rnd.Intn(3)), rnd.Int31n(16), int32(-2)
				switch {
				case rnd.Intn(8) == 0:
					kind, dist, next = 0, 0, -1
				case as > 0 && rnd.Intn(4) != 0:
					next = rnd.Int31n(as)
				}
				j.Note(as, rnd.Int31n(8), CauseNeighborAdvert, 0, 0, -1, kind, dist, next)
			}
			checkQueries(t, j, rnd, ases, step)
			if rnd.Intn(8) == 0 {
				checkQueries(t, j, rnd, ases, step)
			}
		}
		if wraps = max(wraps, j.Appends()/uint64(capacity)); wraps < 2 {
			t.Errorf("cap %d: the ring wrapped only %d times between Resets", capacity, wraps)
		}
	}
}

// TestIndexInvalidatedByReset pins the case the append count alone
// cannot see: a Reset followed by exactly as many appends as the
// index was built at.
func TestIndexInvalidatedByReset(t *testing.T) {
	j := NewJournal(8)
	j.BeginWindow(0, false)
	for as := int32(0); as < 3; as++ {
		j.Note(as, 0, CauseSeedFrontier, 0, 0, -1, 1, 1, -2)
	}
	if _, ok := j.Latest(0, 2); !ok {
		t.Fatal("AS 2 not found before Reset")
	}
	j.Reset()
	j.BeginWindow(0, false)
	for as := int32(10); as < 13; as++ {
		j.Note(as, 0, CauseSeedFrontier, 0, 0, -1, 1, 1, -2)
	}
	if e, ok := j.Latest(0, 2); ok {
		t.Fatalf("AS 2 survived Reset: %+v", e)
	}
	if e, ok := j.Latest(0, 12); !ok || e.Seq != 3 {
		t.Fatalf("Latest(0, 12) = %+v %v, want seq 3", e, ok)
	}
}
