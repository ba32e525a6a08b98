// Package prov is the route-provenance journal: a bounded,
// preallocated ring of fixed-size route-change entries recorded from
// inside the atlas engine's hot loop. Every route change in any plane
// (BGP, STAMP red, STAMP blue) appends one Entry — seq, event id,
// converge round, plane, AS, prev/new (kind, dist, next hop) and a
// cause code — without allocating, so the incremental replay path
// keeps its 0 allocs/op gate with a journal attached.
//
// The journal's core invariant, which every query relies on: after a
// fixpoint settles, the LATEST entry per (plane, AS) describes that
// AS's CURRENT route. The engine guarantees this by journaling every
// mutation of the current-route slabs in an event window — converge-loop
// recomputes, cascade invalidations, and wholesale plane re-roots (which
// record an explicit clear for every AS that held a route, then the
// origin re-seed). A from-scratch convergence resets the journal and
// records nothing, so an AS with no entry at all holds the route that
// convergence left it (or its history was evicted from the ring — the
// query API distinguishes the two via the eviction counter).
//
// Cause codes are a CLOSED enum, not free-form strings: the engine has
// exactly four ways to change a route (seed-frontier re-evaluation,
// neighbor-advert propagation, cascade invalidation, plane re-root),
// entries must stay fixed-size for the preallocated ring, and a closed
// set keeps the serialized surface (JSON chains, flight dumps) stable
// for trend tooling. A new cause is an engine change and a schema
// event, never a formatting decision.
package prov

import (
	"fmt"

	"stamp/internal/ring"
)

// Cause says which engine mechanism changed the route.
type Cause uint8

const (
	// causeNone is the zero value; no valid entry carries it.
	causeNone Cause = iota
	// CauseSeedFrontier: the event's own seed frontier re-evaluated the
	// AS in round 1 (the change is directly attributable to the event).
	CauseSeedFrontier
	// CauseNeighborAdvert: a neighbor's changed advertisement reached
	// the AS in a later round (propagation, not direct damage).
	CauseNeighborAdvert
	// CauseCascade: the STAMP invalidation cascade cleared the route
	// because its forwarding chain crossed dead capacity.
	CauseCascade
	// CauseReroot: the blue lock chain moved and the plane was re-rooted
	// wholesale (clears recorded for every routed AS, then re-learning).
	CauseReroot

	causeCount
)

var causeNames = [causeCount]string{
	"none", "seed-frontier", "neighbor-advert", "cascade-invalidation", "reroot",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Entry is one route change. Fixed size (48 bytes), so a Journal of
// capacity N is exactly one slab allocation at construction time.
//
// PrevNext / NewNext are DENSE AS ids of the next hop, not adjacency
// slots: -1 means routeless, -2 means the AS is the origin itself.
// A routeless side is normalized to (kind 0, dist 0, next -1) so
// entries compare exactly like StateView.RouteAt results.
type Entry struct {
	Seq      uint64 // 1-based append sequence (monotonic, never reused)
	Event    uint64 // event id: 0 = initial convergence, then 1, 2, …
	Round    int32  // converge round within the plane window (0 = pre-round)
	AS       int32  // dense AS id whose route changed
	PrevDist int32
	NewDist  int32
	PrevNext int32 // dense next-hop AS id, -1 none, -2 origin
	NewNext  int32
	Plane    int8 // 0 BGP, 1 STAMP red, 2 STAMP blue
	Cause    Cause
	PrevKind int8 // route kind before the change (0 none)
	NewKind  int8 // route kind after the change (0 none)
}

// Journal is a bounded route-change ring for ONE destination's state.
// It is not internally synchronized: the engine writes it from the
// single goroutine converging that destination. Queries are not
// read-only either — Latest and Chain may rebuild the (plane, AS)
// index — so callers must serialize every query with the writer AND
// with each other (internal/serve's per-shard provMu does both).
//
// A nil *Journal is a valid no-op receiver for every method, so the
// engine hooks cost one predictable branch when provenance is off.
type Journal struct {
	ring ring.Ring[Entry] // Seq is the ring's sequence number
	gen  uint64           // bumped by Reset, so a stale index never survives one

	// Staged per-window context stamped onto every Note.
	event  uint64
	plane  int8
	reroot bool

	// Query index (see index.go): built lazily by the first query after
	// the journal changed, valid while ring.Last() and gen match.
	idx      []int32
	idxShift uint8
	idxCount uint64
	idxGen   uint64
}

// NewJournal builds a journal retaining the last capacity entries.
func NewJournal(capacity int) *Journal {
	return &Journal{ring: ring.New[Entry](capacity)}
}

// Reset clears all entries and counters but keeps the ring slab. The
// engine calls it when a state re-initializes for a destination: the
// journal's lifetime is one destination fixpoint's.
func (j *Journal) Reset() {
	if j == nil {
		return
	}
	j.ring.Reset()
	j.gen++
	j.event = 0
	j.plane = 0
	j.reroot = false
}

// BeginEvent opens the next event window and returns its id. The
// first applied event is 1; the engine records nothing under event 0,
// the from-scratch convergence the journal was reset at.
func (j *Journal) BeginEvent() uint64 {
	if j == nil {
		return 0
	}
	j.event++
	return j.event
}

// BeginWindow stages the plane (and whether this window is a wholesale
// re-root) for subsequent Notes.
func (j *Journal) BeginWindow(plane int, reroot bool) {
	if j == nil {
		return
	}
	j.plane = int8(plane)
	j.reroot = reroot
}

// WindowCause maps a converge round to the cause code for a change
// observed in the currently staged window: re-root windows attribute
// everything to the re-root; otherwise round <= 1 is the event's own
// seed frontier and later rounds are neighbor propagation.
func (j *Journal) WindowCause(round int32) Cause {
	if j.reroot {
		return CauseReroot
	}
	if round <= 1 {
		return CauseSeedFrontier
	}
	return CauseNeighborAdvert
}

// Note appends one route change. This is the hot-loop entry point: one
// ring-slot write, no allocation, no branch. The fields are set in two
// tuple assignments because that keeps Note within the compiler's
// inlining budget, and the engine's hot loop relies on it inlining.
func (j *Journal) Note(as, round int32, cause Cause, prevKind int8, prevDist, prevNext int32, newKind int8, newDist, newNext int32) {
	if j == nil {
		return
	}
	e := j.ring.Push()
	e.Seq, e.Event, e.Round, e.AS, e.PrevDist, e.NewDist = j.ring.Last(), j.event, round, as, prevDist, newDist
	e.PrevNext, e.NewNext, e.Plane, e.Cause, e.PrevKind, e.NewKind = prevNext, newNext, j.plane, cause, prevKind, newKind
}

// Event returns the currently staged event id.
func (j *Journal) Event() uint64 {
	if j == nil {
		return 0
	}
	return j.event
}

// Len returns the number of retained entries.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.ring.Len()
}

// Appends returns the total number of entries ever appended.
func (j *Journal) Appends() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Last()
}

// Evicted returns how many entries the ring has overwritten.
func (j *Journal) Evicted() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Evicted()
}

// LastSeq returns the newest retained Seq (0 when empty).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Last()
}
