package atlas

import (
	"fmt"
	"slices"
	"time"

	"stamp/internal/prov"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

// The atlas engine models interdomain convergence at routing-round
// granularity instead of message granularity: per destination, every AS
// holds one current route and one advertised route per plane (BGP, and
// STAMP's red and blue), and a round advances in two phases — every AS
// adjacent to a change recomputes its best route from its neighbors'
// advertisements (a Jacobi step, so within-round order cannot matter),
// then ASes whose advertisement is stale and whose MRAI gate is open
// publish. Failures are applied as an instantaneous invalidation
// cascade (routes whose forwarding chain crosses a dead link or AS are
// withdrawn everywhere before re-convergence starts), so the engine
// never forms transient loops and always terminates; what it measures
// is repair time and repair churn, not path exploration. The classic
// message-level engines remain the reference for exploration dynamics;
// the fixpoints agree exactly (pinned against topology.StaticRoutes).
//
// All state lives in preallocated slabs indexed by AS; the convergence
// loop performs no allocation (pinned by TestConvergeHotLoopAllocs).

// Plane indices.
const (
	planeBGP = iota
	planeRed
	planeBlue
	planeCount
)

// Route-kind ranks: the Gao-Rexford preference order. Lower is better;
// kindNone never wins a comparison.
const (
	kindNone     = int8(0)
	kindCustomer = int8(1) // customer-learned or locally originated
	kindPeer     = int8(2)
	kindProvider = int8(3)
)

// Frontier slot states: how much re-evaluation the next round owes an
// AS. Every reached AS keeps its frontier slot whatever its state, so a
// round's frontier order and the loop's round count do not depend on it.
const (
	frontOut     = int8(0) // not in the frontier
	frontReached = int8(1) // reached, but no advertisement can move its route
	frontOffer   = int8(2) // takes its round candidate without a row scan
	frontScan    = int8(3) // full recompute
)

const inf = int32(1 << 30)

// NoMRAI disables advertisement pacing when assigned to
// Params.MRAIRounds. The zero Params value means "defaults" at the
// Run/Options layer, so "off" needs an explicit sentinel.
const NoMRAI = -1

// Params tunes the engine.
type Params struct {
	// MRAIRounds is the minimum number of rounds between an AS's
	// successive advertisements — the round-granularity image of BGP's
	// MRAI timer (a minimum inter-advertisement interval). A value of
	// 1 adds no damping beyond the natural one-publication-per-round
	// cadence; use NoMRAI (or 1) to disable pacing, and note a zero
	// Params struct passed to Run means DefaultParams.
	MRAIRounds int
}

// DefaultParams mirrors the paper's "MRAI on" configuration at round
// granularity.
func DefaultParams() Params { return Params{MRAIRounds: 2} }

// Engine converges destinations on one immutable CSR graph.
type Engine struct {
	g       *Graph
	p       Params
	metrics *Metrics
	tracer  *trace.Tracer
}

// NewEngine builds an engine over g.
func NewEngine(g *Graph, p Params) *Engine { return &Engine{g: g, p: p} }

// Trace attaches a tracer: each subsequent ApplyEvent, InitDest, or
// ConvergeDest takes one sampling decision and, when sampled, records a
// causal span tree (apply → cascade → per-plane convergence with
// per-round churn). nil detaches. Tracing is side-effect only — it
// never changes outcomes, RNG streams, or the JSON reports.
func (e *Engine) Trace(t *trace.Tracer) { e.tracer = t }

// Graph returns the engine's topology.
func (e *Engine) Graph() *Graph { return e.g }

// PlaneOutcome aggregates one plane's behavior at one destination.
type PlaneOutcome struct {
	// InitRounds is the round count of initial convergence from scratch.
	InitRounds int32 `json:"init_rounds"`
	// ReconvRounds sums re-convergence rounds over all event groups;
	// MaxReconvRounds is the worst single group.
	ReconvRounds    int32 `json:"reconv_rounds"`
	MaxReconvRounds int32 `json:"max_reconv_rounds"`
	// Changed counts distinct ASes whose route changed, summed over
	// event groups.
	Changed int64 `json:"changed"`
	// LostASRounds counts (AS, round) pairs without a route during
	// re-convergence, for ASes that have a route again once the group
	// converges — the transient loss integral.
	LostASRounds int64 `json:"lost_as_rounds"`
	// PermLostASRounds counts routeless rounds of ASes still routeless
	// at group convergence (the damage was partition, not transient).
	PermLostASRounds int64 `json:"perm_lost_as_rounds"`
	// UnreachableFinal counts ASes without a route after the last group.
	UnreachableFinal int32 `json:"unreachable_final"`
}

// DestOutcome is one destination shard's result.
type DestOutcome struct {
	Dest topology.ASN `json:"dest"`
	// DestASN is the destination's original (snapshot) ASN, filled by
	// Run so an ingested graph's per-destination results can be
	// correlated with real-world ASNs; the engines themselves work in
	// dense internal ids and leave it zero.
	DestASN int64        `json:"dest_asn,omitempty"`
	Groups  int          `json:"groups"`
	BGP     PlaneOutcome `json:"bgp"`
	Red     PlaneOutcome `json:"red"`
	Blue    PlaneOutcome `json:"blue"`
	// StampLostASRounds is the STAMP data-plane transient loss: per AS
	// and group, min(red, blue) routeless rounds — a packet switches to
	// the other color's route, so it is lost only while both planes are
	// down.
	StampLostASRounds int64 `json:"stamp_lost_as_rounds"`
	// StampUnreachableFinal counts ASes with neither a red nor a blue
	// route after the last group.
	StampUnreachableFinal int32 `json:"stamp_unreachable_final"`
}

// State is one worker's preallocated slab set: every per-(AS, plane)
// quantity the convergence loop touches, sized once for the graph and
// reused across destination shards. Not goroutine-safe; use one State
// per worker.
type State struct {
	g    *Graph
	dest topology.ASN

	withdrawn bool
	down      []bool // per directed adjacency entry
	nodeDown  []bool

	// Blue lock chain: lockNext[a] is the locked provider of chain
	// member a (-1 off-chain); chain holds the members in order.
	lockNext  []int32
	onChain   []bool
	chain     []int32
	prevChain []int32

	// Per-plane route state. cur is the route in use (the forwarding
	// state); adv is the advertised route neighbors see; via is the
	// adjacency-entry index of the next hop (-1 none, -2 origin).
	curKind [planeCount][]int8
	curDist [planeCount][]int32
	curVia  [planeCount][]int32
	advKind [planeCount][]int8
	advDist [planeCount][]int32

	// Shared per-window scratch (one plane converges at a time). inFront
	// is an AS's frontier slot state (frontOut … frontScan); cand is its
	// round candidate while the slot is frontOffer: the best offer pushed
	// to it this round, packed sender<<2 | kind.
	ready     []int32
	front     []int32
	inFront   []int8
	cand      []int32
	frontLen  int
	pend      []int32
	inPend    []bool
	wantPub   []bool
	pendLen   int
	lostSince []int32

	// Per-group accounting. hadStart records, per plane, whether the AS
	// had a route when the group's events hit: loss is only counted for
	// ASes that actually lost service, not for ones a plane never
	// covered (blue legitimately serves a subset of the graph).
	// permMark flags ASes a plane failed to re-serve by group end;
	// their lostAcc then holds the full window outage (gaps + tail) so
	// the STAMP min() sees the dead plane as down all window, while the
	// per-plane transient integral excludes them.
	//
	// In a sparse window (see the touched-set fields below) these slabs
	// are valid only at ASes stamped with the window's epoch: the first
	// markChanged of a window initializes the AS's entries, and every
	// reader goes through windowLoss or a touched list. A dense window
	// makes them valid everywhere (densify).
	lostAcc      [planeCount][]int32
	hadStart     [planeCount][]bool
	permMark     [planeCount][]bool
	changedStamp [planeCount][]int32
	epoch        int32
	winEpoch     [planeCount]int32 // epoch of plane p's window in the current group

	// Touched sets: what makes an event's cost proportional to its churn.
	// seq numbers the event groups settled (and from-scratch resets, so a
	// consumer never mistakes a re-initialized state for one it is in
	// sync with); generation seq&1 holds, per plane, the ASes whose route
	// changed in that group's window, in first-change order. The previous
	// group's generation is retained so a consumer that lags two groups
	// (serve's spare snapshot buffer) can patch instead of copy. Lists
	// have fixed capacity listCap; a window that would overflow one, or
	// that re-roots its plane, runs dense instead: dense[gen][p] is set,
	// the accounting slabs are made valid for every AS, and the window's
	// passes sweep all N ASes as they did before touched sets existed.
	listCap int
	seq     uint64
	touched [2][planeCount][]int32
	dense   [2][planeCount]bool
	// casc is the cascade worklist: a binary min-heap of
	// (sweep << 32 | AS) keys, capacity listCap.
	casc []int64
	// visited counts the ASes the current group's window machinery
	// examined (cascade pops and dependent scans, frontier recomputes,
	// advertisement fan-out, accounting passes; a dense pass adds N);
	// denseWindows counts the group's plane windows that ran dense.
	visited      int64
	denseWindows int

	// out is the shard-result scratch the driver fills (see
	// engineState.outcome).
	out DestOutcome

	// inited records that the state holds a converged fixpoint, the
	// precondition for ApplyEvent; evScratch is the single-event group
	// ApplyEvent hands to the shared driver without allocating.
	inited    bool
	evScratch [1]scenario.Event

	// seedFront records, per plane, the frontier size at the start of
	// the last convergence window — the instrumentation's measure of how
	// local an incremental repair was (one store per window; no cost
	// when metrics are detached).
	seedFront [planeCount]int32

	// Tracing context (internal/trace). trc is the per-event recording
	// context (zero = disabled: every span call no-ops), trcParent the
	// external parent span an owner like serve wants atlas roots nested
	// under, trcRoot the current apply/converge root the plane spans
	// parent to, traceShard the ring the state's spans land in. NOT
	// cleared by reset — the lifetime is owned by ApplyEvent/ConvergeDest
	// (engine tracer) or SetTrace/ClearTrace (external owner).
	trc        trace.Ctx
	trcParent  uint64
	trcRoot    uint64
	traceShard int

	// j is the optional route-provenance journal (internal/prov): when
	// attached, every current-route mutation appends one fixed-size
	// entry. nil costs one predicted branch per change site; attached
	// stays 0 allocs/op (the ring is preallocated). Like the trace
	// context, NOT cleared by reset — the owner manages its lifetime,
	// and initConverge Resets the journal contents instead.
	j *prov.Journal
}

// SetJournal attaches a route-provenance journal: every subsequent
// route change in any plane appends one entry, and InitDest /
// ConvergeScratch reset the journal so its contents always describe
// the state's current destination fixpoint. Pass nil to detach.
func (st *State) SetJournal(j *prov.Journal) { st.j = j }

// Journal returns the attached provenance journal (nil when detached).
func (st *State) Journal() *prov.Journal { return st.j }

// provJournal implements engineState.
func (st *State) provJournal() *prov.Journal { return st.j }

// nextHopAS resolves a via slot (adjacency-entry index; -1 none, -2
// origin) to the dense AS id of the next hop — the journal records
// next hops, not adjacency slots, so entries survive comparison with
// RouteAt and walk AS-to-AS.
func (st *State) nextHopAS(v int32) int32 {
	if v >= 0 {
		return int32(st.g.nbr[v])
	}
	return v
}

// note journals one route change at AS a in plane p: prev is the route
// captured before the mutation, the new route is read from the slabs.
// Routeless sides normalize to (kind 0, dist 0, next -1), matching
// StateView.RouteAt. Callers guard on st.j != nil.
func (st *State) note(p int, a, round int32, cause prov.Cause, pk int8, pd, pv int32) {
	nk, nd, nv := st.curKind[p][a], st.curDist[p][a], st.curVia[p][a]
	if pk == kindNone {
		pd, pv = 0, -1
	} else {
		pv = st.nextHopAS(pv)
	}
	if nk == kindNone {
		nd, nv = 0, -1
	} else {
		nv = st.nextHopAS(nv)
	}
	st.j.Note(a, round, cause, pk, pd, pv, nk, nd, nv)
}

// SetTrace attaches an externally-owned trace context: the next
// ApplyEvent records its spans there, nested under parent (the caller's
// span — serve uses this to hang per-shard atlas work under one ingest
// root). Pair with ClearTrace; while attached, the engine's own tracer
// takes no sampling decisions for this state.
func (st *State) SetTrace(c trace.Ctx, parent trace.SpanID) {
	st.trc = c
	st.trcParent = uint64(parent)
}

// ClearTrace detaches any external trace context.
func (st *State) ClearTrace() {
	st.trc = trace.Ctx{}
	st.trcParent = 0
	st.trcRoot = 0
}

// SetTraceShard routes this state's sampled spans to ring shard i of
// the engine's tracer (one shard per worker avoids lock contention) and
// sets the Chrome thread id traces render under.
func (st *State) SetTraceShard(i int) { st.traceShard = i }

// planeSpanNames and roundArgKeys are the static span/arg names the
// hot loop uses — indexed, never formatted, so tracing stays 0 allocs.
var planeSpanNames = [planeCount]string{"atlas.plane_bgp", "atlas.plane_red", "atlas.plane_blue"}

var roundArgKeys = [...]string{
	"round1_changed", "round2_changed", "round3_changed",
	"round4_changed", "round5_changed", "round6_changed",
}

// outcome implements engineState.
func (st *State) outcome() *DestOutcome { return &st.out }

// NewState allocates the slab set for the engine's graph.
func (e *Engine) NewState() *State {
	n := e.g.Len()
	st := &State{
		g:         e.g,
		listCap:   touchedCap(n),
		down:      make([]bool, e.g.Edges()),
		nodeDown:  make([]bool, n),
		lockNext:  make([]int32, n),
		onChain:   make([]bool, n),
		chain:     make([]int32, 0, 64),
		prevChain: make([]int32, 0, 64),
		ready:     make([]int32, n),
		front:     make([]int32, 0, n),
		inFront:   make([]int8, n),
		cand:      make([]int32, n),
		pend:      make([]int32, 0, n),
		inPend:    make([]bool, n),
		wantPub:   make([]bool, n),
		lostSince: make([]int32, n),
	}
	for p := 0; p < planeCount; p++ {
		st.curKind[p] = make([]int8, n)
		st.curDist[p] = make([]int32, n)
		st.curVia[p] = make([]int32, n)
		st.advKind[p] = make([]int8, n)
		st.advDist[p] = make([]int32, n)
		st.lostAcc[p] = make([]int32, n)
		st.hadStart[p] = make([]bool, n)
		st.permMark[p] = make([]bool, n)
		st.changedStamp[p] = make([]int32, n)
		for gen := range st.touched {
			st.touched[gen][p] = make([]int32, 0, st.listCap)
		}
	}
	st.casc = make([]int64, 0, st.listCap)
	for i := range st.lockNext {
		st.lockNext[i] = -1
	}
	return st
}

// touchedCap sizes the per-window touched lists and the cascade
// worklist: a small fixed fraction of the graph (a window that changes
// more than ~3% of all routes is cheaper swept than listed), floored so
// toy graphs never overflow and capped so the lists stay a rounding
// error next to the N-sized slabs.
func touchedCap(n int) int {
	return min(max(n/32, 64), 2048)
}

// setListCap resizes the touched lists and the cascade worklist. Tests
// shrink them so the overflow edges run on small graphs. At 0 nothing
// can be listed and every window runs dense from its start: each event
// then costs the full set of N-sized passes whatever it changes, as it
// did before touched sets existed (Replay runs that way).
func (st *State) setListCap(c int) {
	st.listCap = c
	for gen := range st.touched {
		for p := range st.touched[gen] {
			st.touched[gen][p] = make([]int32, 0, c)
		}
	}
	st.casc = make([]int64, 0, c)
}

// Windows returns the state's window sequence number: it advances by
// one per settled event group (one ApplyEvent, or one ConvergeDest
// group) and by one per from-scratch convergence. A consumer that
// mirrors the routes (serve's snapshot buffers) records the value it
// copied at and later asks Touched for the windows it missed.
func (st *State) Windows() uint64 { return st.seq }

// Touched returns the ASes whose plane-p route changed in window seq,
// in no particular order. ok is false when the set is not available —
// only the latest two windows are retained, a from-scratch convergence
// retains nothing, and a window that re-rooted or overflowed its list
// ran dense — in which case the caller must re-copy the plane
// (SnapshotRoutes). The slice aliases state-owned scratch: it is valid
// until the next ApplyEvent on this state.
func (st *State) Touched(seq uint64, p int) (as []int32, ok bool) {
	if seq > st.seq || seq+2 <= st.seq {
		return nil, false
	}
	gen := seq & 1
	if st.dense[gen][p] {
		return nil, false
	}
	return st.touched[gen][p], true
}

// SnapshotRoute returns plane p's route at AS a in SnapshotRoutes form:
// kind rank (0 none), path length, and the next hop resolved to a dense
// AS id (-1 none, -2 origin).
func (st *State) SnapshotRoute(p int, a int32) (kind int8, dist, next int32) {
	k := st.curKind[p][a]
	if k == kindNone {
		return kindNone, 0, -1
	}
	return k, st.curDist[p][a], st.nextHopAS(st.curVia[p][a])
}

// Visited returns how many ASes and adjacency entries the latest event
// group's window machinery examined (or, after InitDest, the from-scratch
// convergence's) — the work counter that pins ApplyEvent's cost to the
// event's churn rather than to the size of the graph.
func (st *State) Visited() int64 { return st.visited }

// DenseWindows returns how many of the latest event group's three plane
// windows ran dense (re-root or touched-list overflow).
func (st *State) DenseWindows() int { return st.denseWindows }

// reset returns the state to pristine for a new destination shard.
func (st *State) reset(dest topology.ASN) {
	st.dest = dest
	st.visited = 0
	st.inited = false
	st.withdrawn = false
	clear(st.down)
	clear(st.nodeDown)
	st.clearChain()
	for p := 0; p < planeCount; p++ {
		clear(st.curKind[p])
		clear(st.advKind[p])
		clear(st.lostAcc[p])
		clear(st.hadStart[p])
		clear(st.permMark[p])
		clear(st.changedStamp[p])
	}
	st.epoch = 0
	st.frontLen, st.pendLen = 0, 0
	clear(st.inFront)
	clear(st.inPend)
	clear(st.wantPub)
	clear(st.ready)
	// A reset is a window of its own that retains no touched set: no
	// consumer may patch across it.
	st.seq++
	for gen := range st.dense {
		for p := range st.dense[gen] {
			st.dense[gen][p] = true
		}
	}
}

func (st *State) clearChain() {
	for _, v := range st.chain {
		st.lockNext[v] = -1
		st.onChain[v] = false
	}
	st.chain = st.chain[:0]
}

// computeChain rebuilds the blue lock chain from dest upward: each
// member locks its lowest-numbered live provider, mirroring the live
// fleet's deterministic FirstBluePicker. Returns true when the chain
// differs from the previous one.
func (st *State) computeChain() bool {
	st.prevChain = append(st.prevChain[:0], st.chain...)
	st.clearChain()
	if st.withdrawn || st.nodeDown[st.dest] {
		return !slices.Equal(st.chain, st.prevChain)
	}
	v := st.dest
	for {
		st.chain = append(st.chain, int32(v))
		st.onChain[v] = true
		lp := topology.ASN(-1)
		provs := st.g.Providers(v)
		base := st.g.off[v]
		for i, p := range provs {
			if st.down[base+int32(i)] || st.nodeDown[p] {
				continue
			}
			lp = p
			break // providers are sorted ascending: first live is lowest
		}
		if lp < 0 {
			break
		}
		st.lockNext[v] = int32(lp)
		if st.onChain[lp] {
			break // unreachable in a DAG; guard anyway
		}
		v = lp
	}
	return !slices.Equal(st.chain, st.prevChain)
}

// initPlane seeds a plane from scratch: origin at dest, everything else
// routeless, queues holding just the origin's first advertisement.
// With a journal attached, the wholesale clear is journaled as an
// explicit route loss for every AS that held a route (so the journal's
// latest-entry-per-AS invariant survives re-roots), except the origin
// when its pinned route carries over unchanged.
func (st *State) initPlane(p int) {
	n := st.g.Len()
	j := st.j
	origin := !st.withdrawn && !st.nodeDown[st.dest]
	d := int32(st.dest)
	keptOrigin := origin && st.curKind[p][d] != kindNone && st.curVia[p][d] == -2
	for a := 0; a < n; a++ {
		if j != nil && st.curKind[p][a] != kindNone && (int32(a) != d || !keptOrigin) {
			pk, pd, pv := st.curKind[p][a], st.curDist[p][a], st.curVia[p][a]
			st.curKind[p][a] = kindNone
			st.note(p, int32(a), 0, j.WindowCause(0), pk, pd, pv)
		}
		st.curKind[p][a] = kindNone
		st.curDist[p][a] = inf
		st.curVia[p][a] = -1
		st.advKind[p][a] = kindNone
		st.advDist[p][a] = inf
	}
	st.frontLen, st.pendLen = 0, 0
	if !origin {
		return
	}
	st.curKind[p][d] = kindCustomer
	st.curDist[p][d] = 0
	st.curVia[p][d] = -2
	if j != nil && !keptOrigin {
		st.note(p, d, 0, j.WindowCause(0), kindNone, 0, -1)
	}
	st.pendAdd(d)
}

// frontAdd seeds a for a full recompute: cascade victims, event
// endpoints and red dependents changed what a's route is computed from
// in ways no advertisement announces.
func (st *State) frontAdd(a int32) {
	if st.inFront[a] == frontOut {
		st.front = append(st.front[:st.frontLen], a)
		st.frontLen++
	}
	st.inFront[a] = frontScan
}

// publish fans a's new plane-p advertisement out to its live neighbors
// in row order, which is the order they join the next round's frontier.
// oldKind and oldDist are the advertisement it replaces. Per group, the
// offer a neighbor hears: a's customers take anything as a provider
// route, its peers and providers only customer routes, and a provider
// only under the export rules.
func (st *State) publish(p int, a int32, oldKind int8, oldDist int32) {
	g := st.g
	kind, dist := st.advKind[p][a], st.advDist[p][a]
	st.visited += int64(g.off[a+1] - g.off[a])
	up, wasUp := kind == kindCustomer, oldKind == kindCustomer
	for e := g.off[a]; e < g.provEnd[a]; e++ {
		k, ok := kindNone, kindNone
		if (up || wasUp) && st.climbs(p, topology.ASN(a), int32(g.nbr[e])) {
			k, ok = kindIf(up, kindCustomer), kindIf(wasUp, kindCustomer)
		}
		st.reach(p, a, e, k, dist, ok, oldDist)
	}
	k, ok := kindIf(up, kindPeer), kindIf(wasUp, kindPeer)
	for e := g.provEnd[a]; e < g.peerEnd[a]; e++ {
		st.reach(p, a, e, k, dist, ok, oldDist)
	}
	k, ok = kindIf(kind != kindNone, kindProvider), kindIf(oldKind != kindNone, kindProvider)
	for e := g.peerEnd[a]; e < g.off[a+1]; e++ {
		st.reach(p, a, e, k, dist, ok, oldDist)
	}
}

// kindIf returns k when cond holds, else kindNone.
func kindIf(cond bool, k int8) int8 {
	if cond {
		return k
	}
	return kindNone
}

// reach queues neighbor w = nbr[e] for the next round on a's
// publication, and records how much re-evaluation that can force. a now
// offers w a route of kind k (kindNone: nothing) advertised at length
// dist, where it offered oldKind at oldDist. Phase 1 reads only
// advertisements, and w's route was the best of them when last computed,
// so only two things can move it: its next hop's offer changed (a is
// that next hop: full recompute), or an offer arrived that strictly
// beats the best w holds or was already offered this round (w takes it
// as its round candidate). Anything else leaves w's route where it is;
// w still keeps its frontier slot, which keeps every journal entry's
// within-round position and the round count.
func (st *State) reach(p int, a, e int32, k int8, dist int32, oldKind int8, oldDist int32) {
	w := int32(st.g.nbr[e])
	if st.down[e] || st.nodeDown[w] {
		return
	}
	slot := st.inFront[w]
	switch slot {
	case frontScan:
		return
	case frontOut:
		st.front = append(st.front[:st.frontLen], w)
		st.frontLen++
		slot = frontReached
	}
	bk, bd := st.curKind[p][w], st.curDist[p][w]
	// A route through a is a's old offer, so only a route that equals it
	// needs its next hop read.
	if oldKind != kindNone && bk == oldKind && bd == oldDist+1 && st.nextHopAS(st.curVia[p][w]) == a {
		st.inFront[w] = frontScan
		return
	}
	if k != kindNone {
		var bs int32 // the best route's sender, read only to break a tie
		if slot == frontOffer {
			c := st.cand[w]
			bs, bk = c>>2, int8(c&3)
			bd = st.advDist[p][bs] + 1
		} else if k == bk && dist+1 == bd {
			bs = st.nextHopAS(st.curVia[p][w])
		}
		// recompute's order: kind, then length, then the lower sender. The
		// origin's pinned (customer, 0) route is beaten by no offer.
		if d := dist + 1; bk == kindNone || k < bk || (k == bk && (d < bd || (d == bd && a < bs))) {
			st.cand[w] = a<<2 | int32(k)
			slot = frontOffer
		}
	}
	st.inFront[w] = slot
}

// takeOffer installs a's round candidate as its route. The candidate
// strictly beats a's route and did not come from a's next hop, so it is
// what recompute would pick, found without the row scan; the via entry
// is a binary search within the one group the candidate's kind names.
func (st *State) takeOffer(p int, a int32) {
	c := st.cand[a]
	sender, kind := c>>2, int8(c&3)
	lo, hi := st.g.group(a, kind)
	st.curKind[p][a] = kind
	st.curDist[p][a] = st.advDist[p][sender] + 1
	st.curVia[p][a] = st.g.search(lo, hi, topology.ASN(sender))
}

func (st *State) pendAdd(a int32) {
	st.wantPub[a] = true
	if !st.inPend[a] {
		st.inPend[a] = true
		st.pend = append(st.pend[:st.pendLen], a)
		st.pendLen++
	}
}

// exportsUp reports whether customer w would announce its plane-p
// route up to its provider a: valley-free (only customer-learned or
// originated routes climb) plus STAMP's selective announcement rules.
// Downhill and lateral exports are unrestricted and are handled inline
// in recompute.
func (st *State) exportsUp(p int, w topology.ASN, a int32) bool {
	return st.advKind[p][w] == kindCustomer && st.climbs(p, w, a)
}

// climbs reports whether STAMP's selective announcement rules let
// customer w's customer route climb to its provider a.
func (st *State) climbs(p int, w topology.ASN, a int32) bool {
	switch p {
	case planeRed:
		// The locked blue provider receives no red.
		return st.lockNext[w] != a
	case planeBlue:
		if st.onChain[w] {
			// Locked blue climbs exactly one provider edge.
			return st.lockNext[w] == a
		}
		// Red precedence: an off-chain AS whose red route is exportable
		// up sends red to every provider, so blue stays home. (Red has
		// already converged for this window.)
		return st.curKind[planeRed][w] != kindCustomer
	}
	return true
}

// recompute evaluates a's best plane-p route from its neighbors'
// advertisements, returning true when the current route changed.
func (st *State) recompute(p int, a int32) bool {
	g := st.g
	bestKind, bestDist, bestVia := kindNone, inf, int32(-1)
	if !st.nodeDown[a] {
		lo, hi := g.off[a], g.off[a+1]
		st.visited += int64(hi - lo)
		provEnd, peerEnd := g.provEnd[a], g.peerEnd[a]
		for e := lo; e < hi; e++ {
			if st.down[e] {
				continue
			}
			w := g.nbr[e]
			if st.nodeDown[w] {
				continue
			}
			wk := st.advKind[p][w]
			if wk == kindNone {
				continue
			}
			var offerKind int8
			switch {
			case e < provEnd:
				// w is a's provider; w exports anything downhill; a
				// imports it as a provider route.
				offerKind = kindProvider
			case e < peerEnd:
				if wk != kindCustomer {
					continue
				}
				offerKind = kindPeer
			default:
				// w is a's customer announcing up.
				if !st.exportsUp(p, w, a) {
					continue
				}
				offerKind = kindCustomer
			}
			d := st.advDist[p][w] + 1
			if bestKind == kindNone || offerKind < bestKind ||
				(offerKind == bestKind && (d < bestDist ||
					(d == bestDist && w < g.nbr[bestVia]))) {
				bestKind, bestDist, bestVia = offerKind, d, e
			}
		}
	}
	if bestKind == st.curKind[p][a] && bestVia == st.curVia[p][a] &&
		(bestKind == kindNone || bestDist == st.curDist[p][a]) {
		return false
	}
	st.curKind[p][a] = bestKind
	st.curDist[p][a] = bestDist
	st.curVia[p][a] = bestVia
	return true
}

// markChanged stamps a as changed in this window's epoch and returns
// true the first time. had is whether a held a plane-p route before the
// change being recorded: on the first change of a sparse window that IS
// the window-start state, so this is where a's accounting entries are
// initialized and a joins the touched list. A full list turns the window
// dense.
func (st *State) markChanged(p int, a int32, had bool) bool {
	if st.changedStamp[p][a] == st.epoch {
		return false
	}
	st.changedStamp[p][a] = st.epoch
	gen := st.seq & 1
	if st.dense[gen][p] {
		return true
	}
	st.hadStart[p][a] = had
	st.lostAcc[p][a] = 0
	st.permMark[p][a] = false
	if len(st.touched[gen][p]) == st.listCap {
		st.densify(p, false)
	} else {
		st.touched[gen][p] = append(st.touched[gen][p], a)
	}
	return true
}

// densify switches plane p's current window to dense: every AS the
// window has not stamped yet gets the accounting entries a sparse window
// would have initialized lazily (its route is still the window-start
// one), after which the window's remaining passes sweep all ASes. A
// window that starts dense (fresh) has stamped nothing yet.
func (st *State) densify(p int, fresh bool) {
	st.dense[st.seq&1][p] = true
	st.denseWindows++
	st.visited += int64(st.g.Len())
	cur, had := st.curKind[p], st.hadStart[p]
	if fresh {
		clear(st.lostAcc[p])
		clear(st.permMark[p])
		for a, k := range cur {
			had[a] = k != kindNone
		}
		return
	}
	stamp := st.changedStamp[p]
	for a := range stamp {
		if stamp[a] != st.epoch {
			had[a] = cur[a] != kindNone
			st.lostAcc[p][a] = 0
			st.permMark[p][a] = false
		}
	}
}

// converge runs plane p to fixpoint, starting from whatever the queues
// hold, tracking loss and churn into out. This is the hot loop: it
// allocates nothing (front/pend were sized to n up front).
func (st *State) converge(p int, mrai int32, out *PlaneOutcome) (int32, error) {
	g := st.g
	st.seedFront[p] = int32(st.frontLen)
	sp := st.trc.StartChild(trace.SpanID(st.trcRoot), planeSpanNames[p])
	traced := sp.Live()
	if traced {
		sp.Arg("seed_frontier", int64(st.frontLen))
	}
	startChanged := out.Changed
	j := st.j
	// Safety bound: Gao-Rexford policies are provably safe under any
	// activation order, so this fires only on an engine bug.
	maxRounds := int32(10_000) + 16*int32(g.Len())
	round := int32(0)
	for st.frontLen > 0 || st.pendLen > 0 {
		round++
		if round > maxRounds {
			sp.End()
			return round, fmt.Errorf("atlas: plane %d exceeded %d rounds at dest %d; engine bug", p, maxRounds, st.dest)
		}
		var cause prov.Cause
		if j != nil {
			cause = j.WindowCause(round)
		}
		roundChanged := out.Changed
		// Phase 1: every frontier AS re-evaluates from advertisements, as
		// far as its slot says the last round's can have moved its route.
		fl := st.frontLen
		st.frontLen = 0
		st.visited += int64(fl)
		for i := 0; i < fl; i++ {
			a := st.front[i]
			slot := st.inFront[a]
			st.inFront[a] = frontOut
			if slot == frontReached {
				continue
			}
			if topology.ASN(a) == st.dest && !st.withdrawn && !st.nodeDown[a] {
				continue // the origin's route is pinned
			}
			had := st.curKind[p][a] != kindNone
			var pk int8
			var pd, pv int32
			if j != nil {
				pk, pd, pv = st.curKind[p][a], st.curDist[p][a], st.curVia[p][a]
			}
			if slot == frontOffer {
				st.takeOffer(p, a)
			} else if !st.recompute(p, a) {
				continue
			}
			if j != nil {
				st.note(p, a, round, cause, pk, pd, pv)
			}
			if st.markChanged(p, a, had) {
				out.Changed++
			}
			has := st.curKind[p][a] != kindNone
			if st.hadStart[p][a] {
				if had && !has {
					st.lostSince[a] = round
				}
				if !had && has {
					st.lostAcc[p][a] += round - st.lostSince[a]
				}
			}
			if st.curKind[p][a] != st.advKind[p][a] ||
				(st.curKind[p][a] != kindNone && st.curDist[p][a] != st.advDist[p][a]) {
				st.pendAdd(a)
			} else {
				st.wantPub[a] = false
			}
		}
		// Phase 2: publish advertisements whose MRAI gate is open.
		w := 0
		for i := 0; i < st.pendLen; i++ {
			a := st.pend[i]
			if !st.wantPub[a] {
				st.inPend[a] = false
				continue
			}
			if round < st.ready[a] {
				st.pend[w] = a
				w++
				continue
			}
			st.inPend[a] = false
			st.wantPub[a] = false
			oldKind, oldDist := st.advKind[p][a], st.advDist[p][a]
			st.advKind[p][a] = st.curKind[p][a]
			st.advDist[p][a] = st.curDist[p][a]
			st.ready[a] = round + mrai
			st.publish(p, a, oldKind, oldDist)
		}
		st.pendLen = w
		if traced && round <= int32(len(roundArgKeys)) {
			sp.Arg(roundArgKeys[round-1], out.Changed-roundChanged)
		}
	}
	// Reopen the MRAI gates this window closed, so the next window (any
	// plane: ready is shared) starts with all of them open. Only an AS
	// whose route changed can have published, except in a re-root, which
	// is dense.
	if gen := st.seq & 1; st.dense[gen][p] {
		clear(st.ready)
	} else {
		for _, a := range st.touched[gen][p] {
			st.ready[a] = 0
		}
	}
	if traced {
		sp.Arg("rounds", int64(round))
		sp.Arg("changed", out.Changed-startChanged)
		sp.End()
	}
	return round, nil
}

// cascade invalidates every plane-p route whose forwarding chain
// crosses a dead link or AS, clearing cur and adv together (the engine
// propagates withdrawals instantaneously — see the package comment) and
// queueing the victims for re-convergence.
//
// The reference procedure sweeps all ASes in ascending order, repeatedly,
// until a sweep invalidates nothing. Before the group's events the state
// was a fixpoint with no dead route in it, so the only routes that can be
// dead on arrival are at the events' endpoints, and every later victim
// lost its next hop to an earlier one. The worklist therefore starts at
// the endpoints and follows reverse next-hop dependencies, keyed
// (sweep, AS) in a min-heap so victims fall in exactly the order the
// sweeps would find them — the journal and the frontier order are
// unchanged. A worklist that outgrows its fixed capacity hands over to
// the sweeps from the position it had reached.
func (st *State) cascade(p int, group []scenario.Event, out *PlaneOutcome) {
	g := st.g
	sp := st.trc.StartChild(trace.SpanID(st.trcRoot), "atlas.cascade")
	startChanged := out.Changed
	st.casc = st.casc[:0]
	seeded := true
	for _, ev := range group {
		switch ev.Op {
		case scenario.OpFailLink:
			seeded = seeded && st.cascPush(1, int32(ev.A)) && st.cascPush(1, int32(ev.B))
		case scenario.OpFailNode:
			seeded = seeded && st.cascPush(1, int32(ev.Node))
			for e := g.off[ev.Node]; seeded && e < g.off[ev.Node+1]; e++ {
				seeded = st.cascPush(1, int32(g.nbr[e]))
			}
		case scenario.OpWithdraw:
			seeded = seeded && st.cascPush(1, int32(ev.Node))
		}
	}
	if !seeded {
		st.cascadeSweeps(p, 0, out)
	}
	for seeded && len(st.casc) > 0 {
		sweep, a := st.cascPop()
		st.visited++
		if !st.routeDead(p, a) {
			continue
		}
		st.invalidate(p, a, out)
		// a's dependents — neighbors forwarding through a — are dead now.
		// The sweep reaches a higher-numbered one later in the same pass
		// and a lower-numbered one in the next.
		st.visited += int64(g.off[a+1] - g.off[a])
		for e := g.off[a]; e < g.off[a+1]; e++ {
			w := int32(g.nbr[e])
			if st.curKind[p][w] == kindNone {
				continue
			}
			if v := st.curVia[p][w]; v < 0 || int32(g.nbr[v]) != a {
				continue
			}
			next := sweep
			if w < a {
				next++
			}
			if !st.cascPush(next, w) {
				st.cascadeSweeps(p, a+1, out)
				seeded = false
				break
			}
		}
	}
	if sp.Live() {
		sp.Arg("plane", int64(p))
		sp.Arg("invalidated", out.Changed-startChanged)
		sp.Arg("frontier", int64(st.frontLen))
		sp.End()
	}
}

// cascPush adds (sweep, a) to the cascade worklist; false means it is
// full.
func (st *State) cascPush(sweep int64, a int32) bool {
	h := st.casc
	if len(h) == st.listCap {
		return false
	}
	key := sweep<<32 | int64(a)
	i := len(h)
	h = append(h, key)
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= key {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = key
	st.casc = h
	return true
}

// cascPop removes and returns the worklist's smallest (sweep, AS).
func (st *State) cascPop() (sweep int64, a int32) {
	h := st.casc
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; len(h) > 0; {
		child := 2*i + 1
		if child >= len(h) {
			h[i] = last
			break
		}
		if child+1 < len(h) && h[child+1] < h[child] {
			child++
		}
		if last <= h[child] {
			h[i] = last
			break
		}
		h[i] = h[child]
		i = child
	}
	st.casc = h
	return top >> 32, int32(top)
}

// routeDead reports whether a's plane-p route (if any) crosses a dead
// link or AS, or leads to a neighbor that has lost its own route.
func (st *State) routeDead(p int, a int32) bool {
	if st.curKind[p][a] == kindNone {
		return false
	}
	if st.nodeDown[a] {
		return true
	}
	e := st.curVia[p][a]
	if topology.ASN(a) == st.dest && e == -2 {
		return st.withdrawn
	}
	next := st.g.nbr[e]
	return st.down[e] || st.nodeDown[next] || st.curKind[p][next] == kindNone
}

// invalidate withdraws a's plane-p route (cur and adv together) and
// queues a for re-convergence.
func (st *State) invalidate(p int, a int32, out *PlaneOutcome) {
	pk, pd, pv := st.curKind[p][a], st.curDist[p][a], st.curVia[p][a]
	st.curKind[p][a] = kindNone
	st.curDist[p][a] = inf
	st.curVia[p][a] = -1
	st.advKind[p][a] = kindNone
	st.advDist[p][a] = inf
	st.lostSince[a] = 0
	if st.j != nil {
		st.note(p, a, 0, prov.CauseCascade, pk, pd, pv)
	}
	if st.markChanged(p, a, true) {
		out.Changed++
	}
	st.frontAdd(a)
}

// cascadeSweeps is the dense cascade: ascending sweeps over all ASes
// until one invalidates nothing. The first sweep starts at AS from —
// where an overflowed worklist left off, or 0.
func (st *State) cascadeSweeps(p int, from int32, out *PlaneOutcome) {
	n := int32(st.g.Len())
	for {
		st.visited += int64(n - from)
		any := false
		for a := from; a < n; a++ {
			if st.routeDead(p, a) {
				st.invalidate(p, a, out)
				any = true
			}
		}
		if !any && from == 0 {
			return
		}
		from = 0
	}
}

// settleGroup finishes a group's accounting for plane p: transient vs
// permanent loss split by whether the AS is reachable at group end.
// Only ASes the plane served at group start can have lost anything. A
// permanently unserved AS keeps its full window outage (earlier gaps
// plus the open tail) in lostAcc under a permMark, so the STAMP min()
// in accumulateGroupLoss sees the dead plane as down the whole window
// instead of as lossless.
func (st *State) settleGroup(p int, endRound int32, out *PlaneOutcome) {
	gen := st.seq & 1
	if !st.dense[gen][p] {
		// An AS the window never touched still holds its start route.
		st.visited += int64(len(st.touched[gen][p]))
		for _, a := range st.touched[gen][p] {
			st.settleAS(p, a, endRound, out)
		}
		return
	}
	n := int32(st.g.Len())
	st.visited += int64(n)
	for a := int32(0); a < n; a++ {
		st.settleAS(p, a, endRound, out)
	}
}

func (st *State) settleAS(p int, a, endRound int32, out *PlaneOutcome) {
	if st.hadStart[p][a] && st.curKind[p][a] == kindNone {
		tail := endRound - st.lostSince[a]
		out.PermLostASRounds += int64(st.lostAcc[p][a]) + int64(tail)
		st.lostAcc[p][a] += tail
		st.permMark[p][a] = true
	}
}

// GroupEvents splits a script into event groups by offset: every event
// at one offset applies atomically, and the engine re-converges fully
// between groups. This is the form ConvergeDest consumes; Run calls it
// internally, and benchmarks call it to drive the engine directly.
func GroupEvents(script scenario.Script) [][]scenario.Event { return groupEvents(script) }

// groupEvents is the internal implementation of GroupEvents.
func groupEvents(script scenario.Script) [][]scenario.Event {
	events := script.Sorted()
	var groups [][]scenario.Event
	for i := 0; i < len(events); {
		j := i
		for j < len(events) && events[j].At == events[i].At {
			j++
		}
		groups = append(groups, events[i:j])
		i = j
	}
	return groups
}

// apply mutates link/node/origin state for one event.
func (st *State) apply(ev scenario.Event) error {
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
			return fmt.Errorf("atlas: link %d--%d already %s", ev.A, ev.B, state)
		}
		st.down[e1], st.down[e2] = down, down
	case scenario.OpFailNode:
		if st.nodeDown[ev.Node] {
			return fmt.Errorf("atlas: AS %d already down", ev.Node)
		}
		st.nodeDown[ev.Node] = true
	case scenario.OpWithdraw:
		if ev.Node != st.dest {
			return fmt.Errorf("atlas: withdraw at %d but shard destination is %d (atlas scripts must be destination-independent)", ev.Node, st.dest)
		}
		st.withdrawn = true
	case scenario.OpDegradeLink, scenario.OpGrayLink, scenario.OpClearLink:
		// Link-quality events are data-plane only: sessions stay up and
		// no route changes, so the convergence engine accepts them as
		// routing no-ops (the link must exist, to catch script bugs).
		if g.entryIndex(ev.A, ev.B) < 0 {
			return fmt.Errorf("atlas: no link %d--%d", ev.A, ev.B)
		}
	default:
		return fmt.Errorf("atlas: unknown op %v", ev.Op)
	}
	return nil
}

// engineState is the per-window contract the shared destination driver
// runs against. The flat slab State and the map-based reference state
// both implement it, so the two engines cannot drift semantically: only
// the storage layout differs. Methods are window-granular — interface
// dispatch never appears inside a convergence loop.
type engineState interface {
	// outcome returns state-owned scratch for the shard result, so the
	// driver's bookkeeping pointers never force a heap allocation per
	// destination.
	outcome() *DestOutcome
	reset(dest topology.ASN)
	apply(ev scenario.Event) error
	computeChain() bool
	// beginGroup opens an event group's accounting before its events
	// apply: the window-start routes are what loss is measured against.
	beginGroup()
	// beginWindow bumps and returns the change epoch and opens plane p's
	// window (loss accumulators, MRAI gates, queues). reroot announces
	// that initPlane follows instead of a cascade.
	beginWindow(p int, reroot bool) int32
	initPlane(p int)
	// cascade withdraws every route the group's events killed.
	cascade(p int, group []scenario.Event, out *PlaneOutcome)
	seedEventFrontier(group []scenario.Event)
	seedRedDependents(redEpoch int32)
	converge(p int, mrai int32, out *PlaneOutcome) (int32, error)
	settleGroup(p int, endRound int32, out *PlaneOutcome)
	clearLoss(p int)
	accumulateGroupLoss(out *DestOutcome)
	accumulateFinal(out *DestOutcome)
	// provJournal returns the attached route-provenance journal (nil
	// when detached); the driver stages event/window context on it so
	// both engines journal identically.
	provJournal() *prov.Journal
}

// ConvergeDest runs one destination shard: initial three-plane
// convergence, then every event group of the script with full
// re-convergence and loss accounting in between. The script's link and
// node events are applied globally; its Dest field is ignored (each
// shard is its own origin).
func (e *Engine) ConvergeDest(st *State, dest topology.ASN, groups [][]scenario.Event) (DestOutcome, error) {
	ext := st.trc.Live()
	if !ext {
		st.trc = e.tracer.Event(st.traceShard)
	}
	sp := st.trc.StartChild(trace.SpanID(st.trcParent), "atlas.converge_dest")
	st.trcRoot = uint64(sp.ID())
	out, err := convergeDest(st, e.p, dest, groups)
	if sp.Live() {
		sp.Arg("dest", int64(dest))
		sp.Arg("groups", int64(len(groups)))
		sp.End()
	}
	st.trcRoot = 0
	if !ext {
		st.trc = trace.Ctx{}
	}
	st.inited = err == nil
	return out, err
}

// mraiRounds normalizes Params.MRAIRounds for the converge loop (NoMRAI
// becomes 0: no pacing).
func mraiRounds(params Params) int32 {
	mrai := int32(params.MRAIRounds)
	if mrai < 0 {
		mrai = 0
	}
	return mrai
}

// planesOf indexes a shard outcome's per-plane slots by plane constant.
func planesOf(out *DestOutcome) [planeCount]*PlaneOutcome {
	return [planeCount]*PlaneOutcome{&out.BGP, &out.Red, &out.Blue}
}

// initConverge resets the state to dest, applies pre as pre-existing
// damage (nil for a pristine topology), and converges the three planes
// from scratch: BGP, then red, then blue (blue's export rules read the
// red fixpoint and the lock chain). Initial propagation is not loss, so
// the loss and churn accounting is cleared afterwards.
func initConverge(st engineState, params Params, dest topology.ASN, pre []scenario.Event) error {
	st.reset(dest)
	j := st.provJournal()
	j.Reset() // the journal describes one destination fixpoint; event 0 is this initial convergence
	out := st.outcome()
	*out = DestOutcome{Dest: dest}
	for _, ev := range pre {
		if err := st.apply(ev); err != nil {
			return err
		}
	}
	mrai := mraiRounds(params)
	planes := planesOf(out)
	st.computeChain()
	for p := 0; p < planeCount; p++ {
		st.beginWindow(p, true)
		j.BeginWindow(p, false)
		st.initPlane(p)
		rounds, err := st.converge(p, mrai, planes[p])
		if err != nil {
			return err
		}
		planes[p].InitRounds = rounds
		// Initial propagation is not loss: clear the accounting.
		st.clearLoss(p)
		planes[p].Changed = 0
	}
	return nil
}

// stepGroup applies one event group atomically to a converged state and
// re-settles all three planes from the invalidated frontier: cascade
// the victims, seed the event endpoints (and, for blue, the ASes whose
// red route moved), converge, and settle the group's loss accounting.
// Returns whether the blue lock chain moved (forcing a red/blue
// re-root). This is the incremental hot path: it allocates nothing.
func stepGroup(st engineState, params Params, group []scenario.Event) (bool, error) {
	mrai := mraiRounds(params)
	out := st.outcome()
	out.Groups++
	planes := planesOf(out)
	st.beginGroup()
	for _, ev := range group {
		if err := st.apply(ev); err != nil {
			return false, err
		}
	}
	chainChanged := st.computeChain()
	j := st.provJournal()
	j.BeginEvent()
	var redEpoch int32
	for p := 0; p < planeCount; p++ {
		reroot := (p == planeBlue || p == planeRed) && chainChanged
		epoch := st.beginWindow(p, reroot)
		if p == planeRed {
			redEpoch = epoch
		}
		j.BeginWindow(p, reroot)
		if reroot {
			// The lock chain moved: both colors' selective rules
			// changed, so the plane re-roots from scratch — the
			// paper's observed blue re-root cost, surfaced honestly.
			st.initPlane(p)
		} else {
			st.cascade(p, group, planes[p])
			st.seedEventFrontier(group)
			if p == planeBlue {
				// Blue's export rules read red's fixpoint ("red
				// precedence"): wherever red changed this group, the
				// providers of that AS must re-evaluate their blue
				// offers even though no blue link died.
				st.seedRedDependents(redEpoch)
			}
		}
		rounds, err := st.converge(p, mrai, planes[p])
		if err != nil {
			return false, err
		}
		planes[p].ReconvRounds += rounds
		if rounds > planes[p].MaxReconvRounds {
			planes[p].MaxReconvRounds = rounds
		}
		st.settleGroup(p, rounds, planes[p])
	}
	st.accumulateGroupLoss(out)
	return chainChanged, nil
}

// convergeDest is the engine-independent destination driver.
func convergeDest(st engineState, params Params, dest topology.ASN, groups [][]scenario.Event) (DestOutcome, error) {
	if err := initConverge(st, params, dest, nil); err != nil {
		return DestOutcome{}, err
	}
	for _, group := range groups {
		if _, err := stepGroup(st, params, group); err != nil {
			return DestOutcome{}, err
		}
	}
	out := st.outcome()
	st.accumulateFinal(out)
	return *out, nil
}

// EventCost is the incremental price of one applied event: the
// re-convergence rounds and route churn it caused, and the transient
// loss integrated over its window — the per-event resolution Replay
// emits. Deltas are window-local (each event is its own accounting
// window), so summing EventCosts over a stream reproduces the
// aggregate ReconvRounds/LostASRounds a grouped ConvergeDest run of
// the same windows would report.
type EventCost struct {
	// Per-plane re-convergence rounds for this event's window.
	BGPRounds  int32 `json:"bgp_rounds"`
	RedRounds  int32 `json:"red_rounds"`
	BlueRounds int32 `json:"blue_rounds"`
	// Changed counts distinct (AS, plane) route changes.
	Changed int64 `json:"changed"`
	// Transient lost AS-rounds during this window, per plane and for
	// STAMP's data plane (min of red/blue per AS).
	BGPLost   int64 `json:"bgp_lost_as_rounds"`
	RedLost   int64 `json:"red_lost_as_rounds"`
	BlueLost  int64 `json:"blue_lost_as_rounds"`
	StampLost int64 `json:"stamp_lost_as_rounds"`
	// Reroot reports that the event moved the blue lock chain, forcing
	// the red and blue planes to re-converge from scratch.
	Reroot bool `json:"reroot,omitempty"`
}

// Rounds is the event's total re-convergence rounds across planes.
func (c EventCost) Rounds() int32 { return c.BGPRounds + c.RedRounds + c.BlueRounds }

// applyEventGroup runs stepGroup and extracts the window's deltas from
// the cumulative outcome.
func applyEventGroup(st engineState, params Params, group []scenario.Event) (EventCost, error) {
	out := st.outcome()
	prev := *out
	reroot, err := stepGroup(st, params, group)
	if err != nil {
		return EventCost{}, err
	}
	return EventCost{
		BGPRounds:  out.BGP.ReconvRounds - prev.BGP.ReconvRounds,
		RedRounds:  out.Red.ReconvRounds - prev.Red.ReconvRounds,
		BlueRounds: out.Blue.ReconvRounds - prev.Blue.ReconvRounds,
		Changed: (out.BGP.Changed - prev.BGP.Changed) +
			(out.Red.Changed - prev.Red.Changed) +
			(out.Blue.Changed - prev.Blue.Changed),
		BGPLost:   out.BGP.LostASRounds - prev.BGP.LostASRounds,
		RedLost:   out.Red.LostASRounds - prev.Red.LostASRounds,
		BlueLost:  out.Blue.LostASRounds - prev.Blue.LostASRounds,
		StampLost: out.StampLostASRounds - prev.StampLostASRounds,
		Reroot:    reroot,
	}, nil
}

// InitDest converges dest's three planes from scratch on the pristine
// topology and leaves st at the fixpoint, ready for ApplyEvent to
// stream events incrementally. The outcome accumulates in the state;
// FinishDest reads it out.
func (e *Engine) InitDest(st *State, dest topology.ASN) error {
	ext := st.trc.Live()
	if !ext {
		st.trc = e.tracer.Event(st.traceShard)
	}
	sp := st.trc.StartChild(trace.SpanID(st.trcParent), "atlas.init_dest")
	st.trcRoot = uint64(sp.ID())
	err := initConverge(st, e.p, dest, nil)
	if sp.Live() {
		sp.Arg("dest", int64(dest))
		sp.End()
	}
	st.trcRoot = 0
	if !ext {
		st.trc = trace.Ctx{}
	}
	st.inited = err == nil
	return err
}

// ApplyEvent applies one scenario event to a converged state and
// re-settles the three planes incrementally: only the invalidated
// frontier (the cascade's victims plus the event's endpoints) is
// re-evaluated, not the whole graph. The returned EventCost is the
// event's own convergence window; the state is left at the new
// fixpoint — differentially pinned against ConvergeScratch after every
// event of every scenario kind. Allocates nothing (the incremental
// hot-loop discipline, gated by TestIncrementalHotLoopAllocs).
func (e *Engine) ApplyEvent(st *State, ev scenario.Event) (EventCost, error) {
	if !st.inited {
		return EventCost{}, fmt.Errorf("atlas: ApplyEvent on a state that was never converged (call InitDest first)")
	}
	var start time.Time
	if e.metrics != nil {
		start = time.Now()
	}
	ext := st.trc.Live()
	if !ext {
		st.trc = e.tracer.Event(st.traceShard)
	}
	sp := st.trc.StartChild(trace.SpanID(st.trcParent), "atlas.apply_event")
	st.trcRoot = uint64(sp.ID())
	st.evScratch[0] = ev
	cost, err := applyEventGroup(st, e.p, st.evScratch[:1])
	if sp.Live() {
		sp.ArgStr("op", ev.Op.String())
		sp.Arg("dest", int64(st.dest))
		sp.Arg("rounds", int64(cost.Rounds()))
		sp.Arg("changed", cost.Changed)
		sp.Arg("stamp_lost", cost.StampLost)
		if cost.Reroot {
			sp.Arg("reroot", 1)
		}
		if st.j != nil {
			// Cross-reference: the journal seq as of this span's end, so
			// Perfetto spans and provenance entries line up (the event's
			// entries are the ones at or below this seq with its event id).
			sp.Arg("prov_seq", int64(st.j.LastSeq()))
		}
		sp.End()
	}
	st.trcRoot = 0
	if !ext {
		st.trc = trace.Ctx{}
	}
	if err == nil && e.metrics != nil {
		e.metrics.record(st, cost, start)
	}
	return cost, err
}

// FinishDest returns the accumulated shard outcome with final
// unreachability folded in. Idempotent: the final counters are computed
// on the returned copy, not the state.
func (e *Engine) FinishDest(st *State) DestOutcome {
	out := st.out
	st.accumulateFinal(&out)
	return out
}

// ConvergeScratch is the from-scratch reference for the incremental
// mode: reset the state, apply every event as pre-existing damage, and
// converge the three planes with the initial-convergence path — the
// cost a non-incremental engine would pay after every event, and the
// fixpoint ApplyEvent is differentially validated (DiffStates) and
// benchmarked (BenchmarkAtlasIncremental) against.
func (e *Engine) ConvergeScratch(st *State, dest topology.ASN, events []scenario.Event) error {
	err := initConverge(st, e.p, dest, events)
	st.inited = err == nil
	return err
}

// beginGroup implements engineState: advance the window sequence and
// start the generation's touched sets empty. The window-start routes the
// dense engine snapshots here are captured lazily instead, by the first
// markChanged of each AS.
func (st *State) beginGroup() {
	st.seq++
	gen := st.seq & 1
	for p := 0; p < planeCount; p++ {
		st.touched[gen][p] = st.touched[gen][p][:0]
		st.dense[gen][p] = false
	}
	st.visited, st.denseWindows = 0, 0
}

// beginWindow implements engineState. A sparse window needs no clearing
// at all: beginGroup emptied its touched list, accounting entries are
// initialized on first touch, converge reopens the MRAI gates it closed,
// and lostSince is written before it is read. A re-root starts dense —
// initPlane wipes the plane without marking anything changed, and
// re-learned routes are measured from round 0 — as does every window of
// a from-scratch convergence (reset left both generations dense) and
// every window of a state with no list capacity (setListCap(0)).
func (st *State) beginWindow(p int, reroot bool) int32 {
	st.epoch++
	st.winEpoch[p] = st.epoch
	st.frontLen, st.pendLen = 0, 0
	if reroot || st.listCap == 0 {
		st.densify(p, true)
	}
	if reroot {
		clear(st.lostSince)
	}
	return st.epoch
}

// clearLoss implements engineState: initial convergence (always dense)
// is not loss.
func (st *State) clearLoss(p int) { clear(st.lostAcc[p]) }

// windowLoss returns plane p's accounting for AS a in the current
// group: accumulated routeless rounds, whether the plane served a at
// group start, and whether it failed to re-serve a by window end. An AS
// a sparse window never touched kept its route (or its lack of one)
// throughout.
func (st *State) windowLoss(p int, a int32) (lost int32, had, perm bool) {
	if st.dense[st.seq&1][p] || st.changedStamp[p][a] == st.winEpoch[p] {
		return st.lostAcc[p][a], st.hadStart[p][a], st.permMark[p][a]
	}
	return 0, st.curKind[p][a] != kindNone, false
}

// accumulateGroupLoss implements engineState: the per-group transient
// loss integrals. STAMP's data plane at an AS is down only while every
// plane that serves it is down, so per AS: both colors served at group
// start → min of the two outages (a plane that failed to re-serve
// carries its full window outage in lostAcc via permMark); one color
// served → that color's outage IS the STAMP outage (no fallback
// exists); an AS STAMP no longer serves at group end is permanent
// damage, not transient loss. Per-plane transient integrals exclude
// permMark ASes (those rounds are already in PermLostASRounds). An AS no
// window touched contributes nothing, so sparse groups visit only the
// touched sets; one dense window makes the whole group sweep.
func (st *State) accumulateGroupLoss(out *DestOutcome) {
	gen := st.seq & 1
	planes := planesOf(out)
	if st.dense[gen][planeBGP] || st.dense[gen][planeRed] || st.dense[gen][planeBlue] {
		n := int32(st.g.Len())
		st.visited += int64(n)
		for a := int32(0); a < n; a++ {
			st.addStampLoss(a, out)
			for p := 0; p < planeCount; p++ {
				st.addPlaneLoss(p, a, planes[p])
			}
		}
		return
	}
	for p := 0; p < planeCount; p++ {
		st.visited += int64(len(st.touched[gen][p]))
		for _, a := range st.touched[gen][p] {
			st.addPlaneLoss(p, a, planes[p])
		}
	}
	for _, a := range st.touched[gen][planeRed] {
		st.addStampLoss(a, out)
	}
	for _, a := range st.touched[gen][planeBlue] {
		if st.changedStamp[planeRed][a] != st.winEpoch[planeRed] {
			st.addStampLoss(a, out)
		}
	}
}

func (st *State) addPlaneLoss(p int, a int32, out *PlaneOutcome) {
	if lost, _, perm := st.windowLoss(p, a); !perm {
		out.LostASRounds += int64(lost)
	}
}

func (st *State) addStampLoss(a int32, out *DestOutcome) {
	if st.curKind[planeRed][a] == kindNone && st.curKind[planeBlue][a] == kindNone {
		return
	}
	r, hadRed, _ := st.windowLoss(planeRed, a)
	b, hadBlue, _ := st.windowLoss(planeBlue, a)
	switch {
	case hadRed && hadBlue:
		out.StampLostASRounds += int64(min(r, b))
	case hadRed:
		out.StampLostASRounds += int64(r)
	case hadBlue:
		out.StampLostASRounds += int64(b)
	}
}

// accumulateFinal implements engineState.
func (st *State) accumulateFinal(out *DestOutcome) {
	for a := 0; a < st.g.Len(); a++ {
		hasRed := st.curKind[planeRed][a] != kindNone
		hasBlue := st.curKind[planeBlue][a] != kindNone
		if st.curKind[planeBGP][a] == kindNone {
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

// seedRedDependents queues the providers of every AS whose red route
// changed in the red window (stamped with that window's epoch), plus
// the AS itself, for blue re-evaluation — in ascending AS order, which
// is the order blue's first round journals them in.
func (st *State) seedRedDependents(redEpoch int32) {
	gen := st.seq & 1
	if !st.dense[gen][planeRed] {
		red := st.touched[gen][planeRed]
		slices.Sort(red)
		st.visited += int64(len(red))
		for _, a := range red {
			st.seedRedDependent(a)
		}
		return
	}
	n := int32(st.g.Len())
	st.visited += int64(n)
	for a := int32(0); a < n; a++ {
		if st.changedStamp[planeRed][a] == redEpoch {
			st.seedRedDependent(a)
		}
	}
}

func (st *State) seedRedDependent(a int32) {
	st.frontAdd(a)
	for _, p := range st.g.Providers(topology.ASN(a)) {
		st.frontAdd(int32(p))
	}
}

// seedEventFrontier queues the endpoints of every event's link (and the
// neighbors of failed/withdrawn subjects) so restored capacity is
// noticed: a restore changes no existing route, so the cascade alone
// would never wake the endpoints.
func (st *State) seedEventFrontier(group []scenario.Event) {
	g := st.g
	for _, ev := range group {
		switch ev.Op {
		case scenario.OpFailLink, scenario.OpRestoreLink:
			st.frontAdd(int32(ev.A))
			st.frontAdd(int32(ev.B))
		case scenario.OpFailNode:
			for e := g.off[ev.Node]; e < g.off[ev.Node+1]; e++ {
				st.frontAdd(int32(g.nbr[e]))
			}
		case scenario.OpWithdraw:
			st.frontAdd(int32(ev.Node))
		case scenario.OpDegradeLink, scenario.OpGrayLink, scenario.OpClearLink:
			// Quality events change no routes; nothing to reseed.
		}
	}
}
