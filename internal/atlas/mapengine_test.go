package atlas

import (
	"fmt"
	"slices"

	"stamp/internal/prov"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// MapEngine is the map-based reference implementation of the atlas
// convergence model: identical outcomes (pinned by
// TestFlatMatchesMapEngine), but every per-(AS, destination) quantity
// lives in hash maps — the storage layout the classic engines use for
// their per-AS routing state. It exists to price the flat slabs
// (BenchmarkAtlasConverge runs both engines on the same shards) and,
// since State's windows went sparse, as the independent oracle for
// them: it keeps the dense procedure — snapshot every window-start
// route, clear every accumulator, cascade by sweeping all ASes, account
// for loss over all ASes — with none of State's touched-set
// bookkeeping, so the differential tests compare two different ways of
// arriving at the same routes, EventCost, DestOutcome and journal in
// canonical form. It is deliberately not optimized; it is the "before"
// picture.
type MapEngine struct {
	g *Graph
	p Params
}

// NewMapEngine builds the reference engine over g.
func NewMapEngine(g *Graph, p Params) *MapEngine { return &MapEngine{g: g, p: p} }

// inf is the map engine's routeless path length.
const inf = int32(1 << 30)

// mapRoute is one plane's route at one AS.
type mapRoute struct {
	kind int8
	dist int32
	via  int32 // adjacency entry of the next hop; -2 origin
}

// MapState is the map-backed counterpart of State.
type MapState struct {
	g    *Graph
	dest topology.ASN

	withdrawn bool
	down      map[int32]bool // directed adjacency entry -> dead
	nodeDown  map[topology.ASN]bool

	lockNext map[int32]int32
	onChain  map[int32]bool
	chain    []int32
	prev     []int32

	cur [planeCount]map[int32]mapRoute
	adv [planeCount]map[int32]mapRoute

	ready     map[int32]int32
	front     map[int32]bool
	pend      map[int32]bool
	wantPub   map[int32]bool
	lostSince map[int32]int32

	lostAcc      [planeCount]map[int32]int32
	hadStart     [planeCount]map[int32]bool
	permMark     [planeCount]map[int32]bool
	changedStamp [planeCount]map[int32]int32
	epoch        int32

	out DestOutcome

	// inited, initial and evScratch mirror State's: initial marks the
	// from-scratch windows, which count no churn. worse counts the changes
	// of a routed AS to a worse route in from-scratch windows, where
	// converge fails if an AS loses its route (TestInitDestNeverLosesARoute).
	inited    bool
	initial   bool
	evScratch [1]scenario.Event
	worse     int

	// j mirrors State.j: the optional route-provenance journal. Entry
	// order within one (event, plane, round) follows map iteration, so
	// it differs from the flat engine's, as the journal's order contract
	// allows; the entries themselves are the same.
	j *prov.Journal
}

// SetJournal mirrors State.SetJournal on the map reference.
func (st *MapState) SetJournal(j *prov.Journal) { st.j = j }

// provJournal implements engineState.
func (st *MapState) provJournal() *prov.Journal { return st.j }

// nextHopAS mirrors State.nextHopAS.
func (st *MapState) nextHopAS(v int32) int32 {
	if v >= 0 {
		return int32(st.g.nbr[v])
	}
	return v
}

// note mirrors State.note: journal one route change at AS a in plane
// p, prev captured before the mutation, new read from the map.
func (st *MapState) note(p int, a, round int32, cause prov.Cause, prev mapRoute, had bool) {
	pk, pd, pv := int8(kindNone), int32(0), int32(-1)
	if had {
		pk, pd, pv = prev.kind, prev.dist, st.nextHopAS(prev.via)
	}
	nk, nd, nv := int8(kindNone), int32(0), int32(-1)
	if cur, ok := st.cur[p][a]; ok {
		nk, nd, nv = cur.kind, cur.dist, st.nextHopAS(cur.via)
	}
	st.j.Note(a, round, cause, pk, pd, pv, nk, nd, nv)
}

// outcome implements engineState.
func (st *MapState) outcome() *DestOutcome { return &st.out }

// NewState allocates a map state.
func (e *MapEngine) NewState() *MapState {
	st := &MapState{g: e.g}
	st.resetMaps()
	return st
}

func (st *MapState) resetMaps() {
	st.down = make(map[int32]bool)
	st.nodeDown = make(map[topology.ASN]bool)
	st.lockNext = make(map[int32]int32)
	st.onChain = make(map[int32]bool)
	st.chain = st.chain[:0]
	for p := 0; p < planeCount; p++ {
		st.cur[p] = make(map[int32]mapRoute)
		st.adv[p] = make(map[int32]mapRoute)
		st.lostAcc[p] = make(map[int32]int32)
		st.hadStart[p] = make(map[int32]bool)
		st.permMark[p] = make(map[int32]bool)
		st.changedStamp[p] = make(map[int32]int32)
	}
	st.ready = make(map[int32]int32)
	st.front = make(map[int32]bool)
	st.pend = make(map[int32]bool)
	st.wantPub = make(map[int32]bool)
	st.lostSince = make(map[int32]int32)
	st.epoch = 0
}

// ConvergeDest mirrors Engine.ConvergeDest through the shared driver.
func (e *MapEngine) ConvergeDest(st *MapState, dest topology.ASN, groups [][]scenario.Event) (DestOutcome, error) {
	out, err := convergeDest(st, e.p, dest, groups)
	st.inited = err == nil
	return out, err
}

// InitDest mirrors Engine.InitDest on the map reference.
func (e *MapEngine) InitDest(st *MapState, dest topology.ASN) error {
	err := initConverge(st, e.p, dest, nil)
	st.inited = err == nil
	return err
}

// ApplyEvent mirrors Engine.ApplyEvent on the map reference, so the
// differential harness can pin the incremental fixpoint on both
// storage layouts.
func (e *MapEngine) ApplyEvent(st *MapState, ev scenario.Event) (EventCost, error) {
	if !st.inited {
		return EventCost{}, fmt.Errorf("atlas: ApplyEvent on a state that was never converged (call InitDest first)")
	}
	st.evScratch[0] = ev
	return applyEventGroup(st, e.p, st.evScratch[:1])
}

// FinishDest mirrors Engine.FinishDest.
func (e *MapEngine) FinishDest(st *MapState) DestOutcome {
	out := st.out
	st.accumulateFinal(&out)
	return out
}

// ConvergeScratch mirrors Engine.ConvergeScratch.
func (e *MapEngine) ConvergeScratch(st *MapState, dest topology.ASN, events []scenario.Event) error {
	err := initConverge(st, e.p, dest, events)
	st.inited = err == nil
	return err
}

func (st *MapState) reset(dest topology.ASN) {
	st.dest = dest
	st.inited = false
	st.initial = true
	st.withdrawn = false
	st.resetMaps()
}

func (st *MapState) apply(ev scenario.Event) error {
	g := st.g
	switch ev.Op {
	case scenario.OpFailLink, scenario.OpRestoreLink:
		e1 := g.entryIndex(ev.A, ev.B)
		e2 := g.entryIndex(ev.B, ev.A)
		if e1 < 0 || e2 < 0 {
			return fmt.Errorf("atlas: no link %d--%d", ev.A, ev.B)
		}
		down := ev.Op == scenario.OpFailLink
		if st.down[e1] == down {
			state := "up"
			if down {
				state = "down"
			}
			return refused(fmt.Sprintf("atlas: link %d--%d already %s", ev.A, ev.B, state))
		}
		st.down[e1], st.down[e2] = down, down
	case scenario.OpFailNode:
		if st.nodeDown[ev.Node] {
			return refused(fmt.Sprintf("atlas: AS %d already down", ev.Node))
		}
		st.nodeDown[ev.Node] = true
	case scenario.OpWithdraw:
		if ev.Node != st.dest {
			return fmt.Errorf("atlas: withdraw at %d but shard destination is %d (atlas scripts must be destination-independent)", ev.Node, st.dest)
		}
		st.withdrawn = true
	case scenario.OpDegradeLink, scenario.OpGrayLink, scenario.OpClearLink:
		// Routing no-op, same as the flat engine: quality damage is
		// invisible to the control plane.
		if g.entryIndex(ev.A, ev.B) < 0 {
			return fmt.Errorf("atlas: no link %d--%d", ev.A, ev.B)
		}
	default:
		return fmt.Errorf("atlas: unknown op %v", ev.Op)
	}
	return nil
}

func (st *MapState) computeChain() bool {
	st.prev = append(st.prev[:0], st.chain...)
	for _, v := range st.chain {
		delete(st.lockNext, v)
		delete(st.onChain, v)
	}
	st.chain = st.chain[:0]
	if st.withdrawn || st.nodeDown[st.dest] {
		return !slices.Equal(st.chain, st.prev)
	}
	v := st.dest
	for {
		st.chain = append(st.chain, int32(v))
		st.onChain[int32(v)] = true
		lp := topology.ASN(-1)
		base := st.g.off[v]
		for i, p := range st.g.Providers(v) {
			if st.down[base+int32(i)] || st.nodeDown[p] {
				continue
			}
			lp = p
			break
		}
		if lp < 0 {
			break
		}
		st.lockNext[int32(v)] = int32(lp)
		if st.onChain[int32(lp)] {
			break
		}
		v = lp
	}
	return !slices.Equal(st.chain, st.prev)
}

// beginGroup implements engineState: snapshot which ASes each plane
// serves before the group's events apply.
func (st *MapState) beginGroup() {
	st.initial = false
	for p := 0; p < planeCount; p++ {
		st.hadStart[p] = make(map[int32]bool, len(st.cur[p]))
		for a := range st.cur[p] {
			st.hadStart[p][a] = true
		}
	}
}

// beginWindow implements engineState. Every window clears everything,
// re-root or not.
func (st *MapState) beginWindow(p int, _ bool) int32 {
	st.epoch++
	st.lostAcc[p] = make(map[int32]int32)
	st.permMark[p] = make(map[int32]bool)
	st.lostSince = make(map[int32]int32)
	st.ready = make(map[int32]int32)
	st.front = make(map[int32]bool)
	st.pend = make(map[int32]bool)
	st.wantPub = make(map[int32]bool)
	return st.epoch
}

func (st *MapState) initPlane(p int) {
	j := st.j
	origin := !st.withdrawn && !st.nodeDown[st.dest]
	d := int32(st.dest)
	keptOrigin := false
	if j != nil {
		if r, ok := st.cur[p][d]; ok && origin && r.via == -2 {
			keptOrigin = true
		}
		// Journal the wholesale clear like the flat engine does, so the
		// latest-entry invariant survives re-roots on this storage too.
		for a, r := range st.cur[p] {
			if a == d && keptOrigin {
				continue
			}
			j.Note(a, 0, j.WindowCause(0), r.kind, r.dist, st.nextHopAS(r.via), kindNone, 0, -1)
		}
	}
	st.cur[p] = make(map[int32]mapRoute)
	st.adv[p] = make(map[int32]mapRoute)
	if !origin {
		return
	}
	st.cur[p][d] = mapRoute{kind: kindCustomer, dist: 0, via: -2}
	if j != nil && !keptOrigin {
		j.Note(d, 0, j.WindowCause(0), kindNone, 0, -1, kindCustomer, 0, -2)
	}
	st.pend[d] = true
	st.wantPub[d] = true
}

func (st *MapState) markChanged(p int, a int32) bool {
	if st.changedStamp[p][a] == st.epoch {
		return false
	}
	st.changedStamp[p][a] = st.epoch
	return true
}

// exportsUp reports whether customer w announces its plane-p route up
// to provider a: a customer route that the selective announcement rules
// (State.climbs) let climb.
func (st *MapState) exportsUp(p int, w topology.ASN, a int32) bool {
	wr, ok := st.adv[p][int32(w)]
	if !ok || wr.kind != kindCustomer {
		return false
	}
	switch p {
	case planeRed:
		ln, has := st.lockNext[int32(w)]
		return !has || ln != a
	case planeBlue:
		if st.onChain[int32(w)] {
			return st.lockNext[int32(w)] == a
		}
		if red, ok := st.cur[planeRed][int32(w)]; ok && red.kind == kindCustomer {
			return false
		}
		return true
	}
	return true
}

func (st *MapState) recompute(p int, a int32) bool {
	g := st.g
	best := mapRoute{kind: kindNone, dist: inf, via: -1}
	if !st.nodeDown[topology.ASN(a)] {
		lo, hi := g.off[a], g.off[a+1]
		provEnd, peerEnd := g.provEnd[a], g.peerEnd[a]
		for e := lo; e < hi; e++ {
			if st.down[e] {
				continue
			}
			w := g.nbr[e]
			if st.nodeDown[w] {
				continue
			}
			wr, ok := st.adv[p][int32(w)]
			if !ok {
				continue
			}
			var offerKind int8
			switch {
			case e < provEnd:
				offerKind = kindProvider
			case e < peerEnd:
				if wr.kind != kindCustomer {
					continue
				}
				offerKind = kindPeer
			default:
				if !st.exportsUp(p, w, a) {
					continue
				}
				offerKind = kindCustomer
			}
			d := wr.dist + 1
			if best.kind == kindNone || offerKind < best.kind ||
				(offerKind == best.kind && (d < best.dist ||
					(d == best.dist && w < g.nbr[best.via]))) {
				best = mapRoute{kind: offerKind, dist: d, via: e}
			}
		}
	}
	old, had := st.cur[p][a]
	if best.kind == kindNone {
		if !had {
			return false
		}
		delete(st.cur[p], a)
		return true
	}
	if had && old.kind == best.kind && old.via == best.via && old.dist == best.dist {
		return false
	}
	st.cur[p][a] = best
	return true
}

func (st *MapState) converge(p int, mrai int32, out *PlaneOutcome) (int32, error) {
	g := st.g
	maxRounds := int32(10_000) + 16*int32(g.Len())
	round := int32(0)
	for len(st.front) > 0 || len(st.pend) > 0 {
		round++
		if round > maxRounds {
			return round, fmt.Errorf("atlas: map engine plane %d exceeded %d rounds at dest %d; engine bug", p, maxRounds, st.dest)
		}
		var cause prov.Cause
		if st.j != nil {
			cause = st.j.WindowCause(round)
		}
		frontier := st.front
		st.front = make(map[int32]bool)
		for a := range frontier {
			if topology.ASN(a) == st.dest && !st.withdrawn && !st.nodeDown[st.dest] {
				continue
			}
			old, had := st.cur[p][a]
			if !st.recompute(p, a) {
				continue
			}
			if st.j != nil {
				st.note(p, a, round, cause, old, had)
			}
			if st.markChanged(p, a) && !st.initial {
				out.Changed++
			}
			cr, has := st.cur[p][a]
			if st.initial && had {
				if !has {
					return round, fmt.Errorf("atlas: map engine plane %d AS %d lost its route in round %d of a from-scratch window at dest %d", p, a, round, st.dest)
				}
				if cr.kind > old.kind || cr.kind == old.kind && cr.dist > old.dist {
					st.worse++
				}
			}
			if st.hadStart[p][a] {
				if had && !has {
					st.lostSince[a] = round
				}
				if !had && has {
					st.lostAcc[p][a] += round - st.lostSince[a]
				}
			}
			ar, advHas := st.adv[p][a]
			if has != advHas || (has && (cr.kind != ar.kind || cr.dist != ar.dist)) {
				st.pend[a] = true
				st.wantPub[a] = true
			} else {
				st.wantPub[a] = false
			}
		}
		for a := range st.pend {
			if !st.wantPub[a] {
				delete(st.pend, a)
				continue
			}
			if round < st.ready[a] {
				continue
			}
			delete(st.pend, a)
			st.wantPub[a] = false
			if cr, ok := st.cur[p][a]; ok {
				st.adv[p][a] = cr
			} else {
				delete(st.adv[p], a)
			}
			st.ready[a] = round + mrai
			for e := g.off[a]; e < g.off[a+1]; e++ {
				if st.down[e] || st.nodeDown[g.nbr[e]] {
					continue
				}
				st.front[int32(g.nbr[e])] = true
			}
		}
	}
	return round, nil
}

// settleLeaves implements engineState: the reference reaches every AS in
// its loop, so no leaf is left to settle.
func (st *MapState) settleLeaves() {}

// cascade implements engineState with the reference procedure: sweep
// every AS, repeatedly, until a sweep withdraws nothing. The events are
// not consulted.
func (st *MapState) cascade(p int, _ []scenario.Event, out *PlaneOutcome) {
	g := st.g
	n := int32(g.Len())
	for {
		any := false
		for a := int32(0); a < n; a++ {
			r, ok := st.cur[p][a]
			if !ok {
				continue
			}
			dead := st.nodeDown[topology.ASN(a)]
			if !dead {
				if topology.ASN(a) == st.dest && r.via == -2 {
					dead = st.withdrawn
				} else {
					next := int32(g.nbr[r.via])
					_, nextHas := st.cur[p][next]
					dead = st.down[r.via] || st.nodeDown[g.nbr[r.via]] || !nextHas
				}
			}
			if !dead {
				continue
			}
			delete(st.cur[p], a)
			delete(st.adv[p], a)
			st.lostSince[a] = 0
			if st.j != nil {
				st.note(p, a, 0, prov.CauseCascade, r, true)
			}
			if st.markChanged(p, a) {
				out.Changed++
			}
			st.front[a] = true
			any = true
		}
		if !any {
			return
		}
	}
}

func (st *MapState) settleGroup(p int, endRound int32, out *PlaneOutcome) {
	for a := range st.hadStart[p] {
		if _, ok := st.cur[p][a]; !ok {
			tail := endRound - st.lostSince[a]
			out.PermLostASRounds += int64(st.lostAcc[p][a]) + int64(tail)
			st.lostAcc[p][a] += tail
			st.permMark[p][a] = true
		}
	}
}

func (st *MapState) seedEventFrontier(group []scenario.Event) {
	g := st.g
	for _, ev := range group {
		switch ev.Op {
		case scenario.OpFailLink, scenario.OpRestoreLink:
			st.front[int32(ev.A)] = true
			st.front[int32(ev.B)] = true
		case scenario.OpFailNode:
			for e := g.off[ev.Node]; e < g.off[ev.Node+1]; e++ {
				st.front[int32(g.nbr[e])] = true
			}
		case scenario.OpWithdraw:
			st.front[int32(ev.Node)] = true
		case scenario.OpDegradeLink, scenario.OpGrayLink, scenario.OpClearLink:
			// Quality events change no routes; nothing to reseed.
		}
	}
}

func (st *MapState) seedRedDependents(redEpoch int32) {
	for a, stamp := range st.changedStamp[planeRed] {
		if stamp != redEpoch {
			continue
		}
		st.front[a] = true
		for _, p := range st.g.Providers(topology.ASN(a)) {
			st.front[int32(p)] = true
		}
	}
}

func (st *MapState) accumulateGroupLoss(out *DestOutcome) {
	n := int32(st.g.Len())
	for a := int32(0); a < n; a++ {
		_, redEnd := st.cur[planeRed][a]
		_, blueEnd := st.cur[planeBlue][a]
		if redEnd || blueEnd {
			r, b := st.lostAcc[planeRed][a], st.lostAcc[planeBlue][a]
			switch {
			case st.hadStart[planeRed][a] && st.hadStart[planeBlue][a]:
				if r < b {
					out.StampLostASRounds += int64(r)
				} else {
					out.StampLostASRounds += int64(b)
				}
			case st.hadStart[planeRed][a]:
				out.StampLostASRounds += int64(r)
			case st.hadStart[planeBlue][a]:
				out.StampLostASRounds += int64(b)
			}
		}
		if !st.permMark[planeBGP][a] {
			out.BGP.LostASRounds += int64(st.lostAcc[planeBGP][a])
		}
		if !st.permMark[planeRed][a] {
			out.Red.LostASRounds += int64(st.lostAcc[planeRed][a])
		}
		if !st.permMark[planeBlue][a] {
			out.Blue.LostASRounds += int64(st.lostAcc[planeBlue][a])
		}
	}
}

func (st *MapState) accumulateFinal(out *DestOutcome) {
	n := int32(st.g.Len())
	for a := int32(0); a < n; a++ {
		_, hasBGP := st.cur[planeBGP][a]
		_, hasRed := st.cur[planeRed][a]
		_, hasBlue := st.cur[planeBlue][a]
		if !hasBGP {
			out.BGP.UnreachableFinal++
		}
		if !hasRed {
			out.Red.UnreachableFinal++
		}
		if !hasBlue {
			out.Blue.UnreachableFinal++
		}
		if !hasRed && !hasBlue {
			out.StampUnreachableFinal++
		}
	}
}

// Dest implements StateView.
func (st *MapState) Dest() topology.ASN { return st.dest }

// ASCount implements StateView.
func (st *MapState) ASCount() int { return st.g.Len() }

// RouteAt implements StateView.
func (st *MapState) RouteAt(p int, a int32) (int8, int32, int32) {
	r, ok := st.cur[p][a]
	if !ok {
		return kindNone, 0, -1
	}
	return r.kind, r.dist, r.via
}

// setListCap resizes the touched lists; the cascade worklist stops at
// the same capacity (its window's is touchedCap(n), above any the tests
// force). Tests shrink them so the overflow edges run on small graphs.
// At 0 nothing can be listed and every window runs dense from its
// start: each event then costs the full set of N-sized passes whatever
// it changes, as it did before touched sets existed. No production
// state runs that way; capacity 0 is the differential tests' dense
// oracle.
func (st *State) setListCap(c int) {
	st.listCap = c
	for gen := range st.touched {
		for p := range st.touched[gen] {
			st.touched[gen][p] = make([]int32, 0, c)
		}
	}
}
