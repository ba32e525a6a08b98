// Package ring is the one bounded retention buffer behind the event
// log, the trace shards and the provenance journal: a preallocated slab
// addressed by 1-based sequence number. It has no locking inside; its
// owner serializes access.
package ring

import "slices"

// Ring retains the newest Cap() entries pushed into it. The first Push
// after New or Reset is sequence number 1. Build one with New.
type Ring[T any] struct {
	buf  []T
	last uint64 // sequence number of the newest entry; 0 when empty
}

// New returns a ring retaining the last capacity (at least 1) entries,
// with the whole slab allocated up front.
func New[T any](capacity int) Ring[T] { return Ring[T]{buf: make([]T, max(capacity, 1))} }

// Push claims the next sequence number's slot for the caller to fill in
// place (no copy, no allocation); it still holds the entry it evicted.
func (r *Ring[T]) Push() *T {
	e := &r.buf[r.last%uint64(len(r.buf))]
	r.last++
	return e
}

// Reset forgets every entry but keeps the slab.
func (r *Ring[T]) Reset() { r.last = 0 }

// Cap returns the number of entries the ring retains.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Last returns the newest sequence number: the pushes since Reset.
func (r *Ring[T]) Last() uint64 { return r.last }

// Evicted returns how many pushed entries are no longer retained.
func (r *Ring[T]) Evicted() uint64 { return r.last - uint64(r.Len()) }

// Oldest returns the oldest retained sequence number (0 when empty).
func (r *Ring[T]) Oldest() uint64 { return min(r.Evicted()+1, r.last) }

// Len returns the number of retained entries.
func (r *Ring[T]) Len() int { return int(min(r.last, uint64(len(r.buf)))) }

// Slot returns the slab index of a retained seq, for callers that keep
// indices (read back with At).
func (r *Ring[T]) Slot(seq uint64) int { return int((seq - 1) % uint64(len(r.buf))) }

// Prev returns the slab index of the entry before the one in index i:
// a walk from Slot(Last()) that takes Len()-1 steps visits every
// retained entry newest first, with no division per step.
func (r *Ring[T]) Prev(i int) int {
	if i == 0 {
		return len(r.buf) - 1
	}
	return i - 1
}

// At returns the entry in slab index i.
func (r *Ring[T]) At(i int) *T { return &r.buf[i] }

// Get returns the entry numbered seq, or nil if it is not retained.
func (r *Ring[T]) Get(seq uint64) *T {
	if seq <= r.Evicted() || seq > r.last {
		return nil
	}
	return &r.buf[r.Slot(seq)]
}

// AppendSince appends the retained entries with sequence number above
// after to dst, oldest first; dst comes back unchanged when none are.
func (r *Ring[T]) AppendSince(dst []T, after uint64) []T {
	from := max(after, r.Evicted()) + 1
	if from > r.last {
		return dst
	}
	dst = slices.Grow(dst, int(r.last-from+1))
	// At most two runs: from's slot to the slab's end, then its start.
	i, end := r.Slot(from), r.Slot(r.last)+1
	if i >= end {
		dst = append(dst, r.buf[i:]...)
		i = 0
	}
	return append(dst, r.buf[i:end]...)
}
