package ring

import (
	"slices"
	"testing"
)

// TestRingMatchesSliceModel drives rings of several capacities against
// an append-only slice holding everything pushed since the last Reset:
// after every Push the bookkeeping, every retained Get, every
// out-of-range Get and every AppendSince cursor must agree with the
// model, and so must a Prev walk from the newest slot. Each ring wraps
// at least three times before a mid-stream Reset and three times after
// it.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		r := New[int](capacity)
		if r.Cap() != capacity {
			t.Fatalf("cap %d: Cap() = %d", capacity, r.Cap())
		}
		var model []int
		value := 0
		check(t, &r, model, capacity)
		for phase := 0; phase < 2; phase++ {
			for i := 0; i < 3*capacity+capacity/2+1; i++ {
				value++
				*r.Push() = value
				model = append(model, value)
				check(t, &r, model, capacity)
			}
			r.Reset()
			model = model[:0]
			check(t, &r, model, capacity)
		}
	}
}

// check compares every observable of r with the model: the entries
// pushed since Reset, oldest first.
func check(t *testing.T, r *Ring[int], model []int, capacity int) {
	t.Helper()
	last := uint64(len(model))
	retained := min(len(model), capacity)
	evicted := last - uint64(retained)
	oldest := uint64(0)
	if last > 0 {
		oldest = evicted + 1
	}
	if r.Last() != last || r.Evicted() != evicted || r.Oldest() != oldest || r.Len() != retained {
		t.Fatalf("cap %d after %d pushes: Last %d Evicted %d Oldest %d Len %d, want %d %d %d %d",
			capacity, last, r.Last(), r.Evicted(), r.Oldest(), r.Len(), last, evicted, oldest, retained)
	}
	for seq := uint64(0); seq <= last+1; seq++ {
		got := r.Get(seq)
		if seq == 0 || seq <= evicted || seq > last {
			if got != nil {
				t.Fatalf("cap %d: Get(%d) = %d, want nil (retained %d..%d)", capacity, seq, *got, oldest, last)
			}
			continue
		}
		if got == nil || *got != model[seq-1] {
			t.Fatalf("cap %d: Get(%d) = %v, want %d", capacity, seq, got, model[seq-1])
		}
		if at := r.At(r.Slot(seq)); at != got {
			t.Fatalf("cap %d: At(Slot(%d)) is not Get(%d)", capacity, seq, seq)
		}
	}
	if retained > 0 {
		slot := r.Slot(last)
		for seq := last; seq > evicted; seq, slot = seq-1, r.Prev(slot) {
			if slot != r.Slot(seq) {
				t.Fatalf("cap %d: Prev walk reached index %d at seq %d, want Slot %d", capacity, slot, seq, r.Slot(seq))
			}
		}
	}
	for after := uint64(0); after <= last+1; after++ {
		want := model[min(max(after, evicted), last):]
		if got := r.AppendSince(nil, after); !slices.Equal(got, want) || (len(want) == 0 && got != nil) {
			t.Fatalf("cap %d: AppendSince(nil, %d) = %v, want %v", capacity, after, got, want)
		}
		prefix := []int{-1, -2}
		got := r.AppendSince(prefix, after)
		if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
			t.Fatalf("cap %d: AppendSince(prefix, %d) = %v, want prefix then %v", capacity, after, got, want)
		}
	}
}

// TestRingPushInPlace pins the in-place contract: Push returns a slot
// of the preallocated slab, the one a later Get reads back, and it
// allocates nothing.
func TestRingPushInPlace(t *testing.T) {
	r := New[[4]int64](3)
	e := r.Push()
	e[2] = 42
	if got := r.Get(1); got != e || got[2] != 42 {
		t.Fatalf("Get(1) = %v, want the pushed slot", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Push()[0]++ }); allocs != 0 {
		t.Fatalf("Push allocates %.1f times", allocs)
	}
	if r := New[int](0); r.Cap() != 1 {
		t.Fatalf("New(0).Cap() = %d, want 1", r.Cap())
	}
}
