package prov

import "math/bits"

// The (plane, AS) index behind Latest and Chain: an open-addressed
// table of ring slots, each cell holding slot+1 (0 = empty) of the
// NEWEST retained entry for one (Plane, AS) key. The key itself is not
// stored — a probe compares the ring entry the cell names — so a cell
// is one int32 and the table, a power of two at least twice the ring
// capacity, stays at most half full (a ring holds at most cap distinct
// keys): 32 KiB for a 4,096-entry ring.
//
// Note does no index work at all. The first query after the journal
// changed rebuilds the table in one newest-to-oldest pass over the
// ring — O(cap), once per changed journal — after which each hop of a
// Chain walk is one expected-O(1) probe.

// indexHash maps a key to its home cell: Fibonacci hashing of
// (AS, plane), whose top bits spread the engine's dense, sequential
// AS ids evenly over the table.
func indexHash(plane int8, as int32, shift uint8) uint64 {
	k := uint64(uint32(as))<<8 | uint64(uint8(plane))
	return (k * 0x9E3779B97F4A7C15) >> shift
}

// find returns the ring slot of the newest retained entry for
// (plane, as), rebuilding the index first when the journal changed
// since the last build.
func (j *Journal) find(plane int8, as int32) (int, bool) {
	if j.idx == nil || j.idxCount != j.count || j.idxGen != j.gen {
		j.rebuildIndex()
	}
	mask := uint64(len(j.idx) - 1)
	for h := indexHash(plane, as, j.idxShift); ; h = (h + 1) & mask {
		c := j.idx[h]
		if c == 0 {
			return 0, false
		}
		if e := &j.ring[c-1]; e.Plane == plane && e.AS == as {
			return int(c - 1), true
		}
	}
}

// rebuildIndex indexes every retained entry, newest first, so the first
// entry seen for a key claims its cell and older ones are skipped.
func (j *Journal) rebuildIndex() {
	if j.idx == nil {
		n := 2
		for n < 2*len(j.ring) {
			n <<= 1
		}
		j.idx = make([]int32, n)
		j.idxShift = uint8(64 - bits.TrailingZeros(uint(n)))
	} else {
		clear(j.idx)
	}
	mask := uint64(len(j.idx) - 1)
	slot := int((j.count - 1) % uint64(len(j.ring)))
	for k := j.Len(); k > 0; k-- {
		e := &j.ring[slot]
		for h := indexHash(e.Plane, e.AS, j.idxShift); ; h = (h + 1) & mask {
			c := j.idx[h]
			if c == 0 {
				j.idx[h] = int32(slot + 1)
				break
			}
			if o := &j.ring[c-1]; o.Plane == e.Plane && o.AS == e.AS {
				break // a newer entry for this key is already indexed
			}
		}
		if slot == 0 {
			slot = len(j.ring)
		}
		slot--
	}
	j.idxCount, j.idxGen = j.count, j.gen
}
