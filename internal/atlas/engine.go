package atlas

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
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
// the fixpoints agree exactly (pinned against testkit.StaticRoutes).
//
// All state lives in preallocated slabs indexed by AS; the convergence
// loop performs no allocation (pinned by TestConvergeHotLoopAllocs). The
// slabs come in two lifetimes: a State holds what one destination owns
// between calls (routes, link and node state, lock chain, touched sets),
// and a window holds the scratch one call converges in, which the Engine
// lends to the call and takes back when it returns.

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

// A route is one word of preference and one of next hop. pref packs
// the kind rank above the path length, kind<<kindShift | dist, so the
// lower pref is the better Gao-Rexford route: kind first, then length.
// A routeless AS holds exactly noRoute, whose prefNone loses to every
// route, so two routes are equal iff their structs are. Path lengths
// stay below the AS count, which freeze caps under 1<<kindShift.
type route struct {
	pref int32
	via  int32 // adjacency-entry index of the next hop (-1 none, -2 origin)
}

const (
	kindShift = 28
	distMask  = 1<<kindShift - 1
	prefNone  = int32(math.MaxInt32) // shifts to kind 7: never kindCustomer
)

var noRoute = route{prefNone, -1}

func mkPref(k int8, dist int32) int32 { return int32(k)<<kindShift | dist }

// kindOf and distOf split a pref; prefNone is kindNone.
func kindOf(pref int32) int8 {
	if pref == prefNone {
		return kindNone
	}
	return int8(pref >> kindShift)
}

func distOf(pref int32) int32 { return pref & distMask }

// split returns r's kind rank, path length and via, with a routeless r
// normalized to (kindNone, 0, -1): the form every boundary reports.
func (r route) split() (kind int8, dist, via int32) {
	if r.pref == prefNone {
		return kindNone, 0, -1
	}
	return kindOf(r.pref), distOf(r.pref), r.via
}

// The offers an advertisement wp makes, by how the receiver sees the
// sender: a provider hears a customer route one hop longer, a peer a
// peer route, and both only when wp is itself a customer route; a
// customer hears any route as a provider route. prefNone is no offer.
func custOffer(wp int32) int32 {
	if wp>>kindShift != int32(kindCustomer) {
		return prefNone
	}
	return wp + 1
}

func peerOffer(wp int32) int32 {
	if wp>>kindShift != int32(kindCustomer) {
		return prefNone
	}
	return wp + 1<<kindShift + 1
}

func provOffer(wp int32) int32 {
	if wp == prefNone {
		return prefNone
	}
	return distOf(wp) + 1 | int32(kindProvider)<<kindShift
}

// Frontier slot states: how much re-evaluation the next round owes an
// AS. An AS joins the frontier only when something can move its route.
const (
	frontOut   = int8(0) // not in the frontier
	frontOffer = int8(1) // takes its round candidate without a row scan
	frontScan  = int8(2) // full recompute
)

// Params tunes the engine.
type Params struct {
	// MRAIRounds is the minimum number of rounds between an AS's
	// successive advertisements — the round-granularity image of BGP's
	// MRAI timer (a minimum inter-advertisement interval). A value of
	// 1 adds no damping beyond the natural one-publication-per-round
	// cadence; a negative value (or 1) disables pacing, and note a zero
	// Params struct passed to NewEngine means DefaultParams.
	MRAIRounds int
}

// DefaultParams mirrors the paper's "MRAI on" configuration at round
// granularity.
func DefaultParams() Params { return Params{MRAIRounds: 2} }

// Engine converges destinations on one immutable CSR graph. It takes
// concurrent calls on distinct States: each call borrows a window from
// the free list (one is allocated when none is idle), so an engine holds
// as many windows as it has ever had calls in flight at once.
type Engine struct {
	g       *Graph
	p       Params
	metrics *Metrics

	mu   sync.Mutex
	free []*window
}

// NewEngine builds an engine over g; zero Params mean DefaultParams.
func NewEngine(g *Graph, p Params) *Engine {
	if p == (Params{}) {
		p = DefaultParams()
	}
	return &Engine{g: g, p: p}
}

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

// State is one destination: its routes in every plane, the link and node
// state its events left, the lock chain and the touched sets, sized once
// for the graph and reusable across destinations. One call at a time per
// State; an Engine takes concurrent calls on distinct States. The
// convergence scratch is not the State's: the engine lends each call a
// window (see window), reachable through the embedded pointer only while
// the call runs.
type State struct {
	g    *Graph
	dest topology.ASN

	withdrawn bool
	down      bitset // per directed adjacency entry
	nodeDown  bitset

	// Blue lock chain: chain holds the members from dest upward, and
	// member chain[i] locks chain[i+1]; the top locks nothing. onChain
	// flags the members, so only a member pays for the chain scan.
	onChain   bitset
	chain     []int32
	prevChain []int32

	// Per-plane route state. cur is the route in use (the forwarding
	// state); adv is the preference of the advertised route neighbors
	// see (prefNone: nothing advertised). custUp[p] holds exactly the ASes
	// whose adv[p] is a customer route, the only advertisement a provider
	// or peer can take, so recompute's customer and peer scans skip every
	// other neighbor without reading its adv, link or export state. Every
	// write to adv goes through setAdv or clears both (initPlane,
	// clearRoutes).
	cur    [planeCount][]route
	adv    [planeCount][]int32
	custUp [planeCount]bitset

	// The frontier and publication queue lengths, and live, which records
	// that this round's publications reached a live neighbor they gave no
	// slot, so the next round runs even if the frontier is empty. The
	// queues themselves are in the window.
	frontLen int
	pendLen  int
	live     bool

	// The window lent to the call in progress; nil between calls.
	*window

	// Touched sets: what makes an event's cost proportional to its churn.
	// seq numbers the event groups settled (and from-scratch resets, so a
	// consumer never mistakes a re-initialized state for one it is in
	// sync with); generation seq&1 holds, per plane, the ASes whose route
	// changed in that group's window, in first-change order. The previous
	// group's generation is retained so a consumer that lags two groups
	// (serve's snapshot buffer, after an event that failed on another
	// shard) can patch instead of copy. Lists
	// have fixed capacity listCap; a window that would overflow one, or
	// that re-roots its plane, runs dense instead: dense[gen][p] is set,
	// the accounting slabs are made valid for every AS, and the window's
	// passes sweep all N ASes as they did before touched sets existed.
	listCap int
	seq     uint64
	touched [2][planeCount][]int32
	dense   [2][planeCount]bool
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

	// initial marks the windows of a from-scratch convergence: reset sets
	// it and the first beginGroup clears it. Initial propagation is not
	// loss or churn, so those windows keep no per-AS change or loss
	// accounting at all, and they reach no leaf: settleLeaves routes the
	// leaves after blue's loop.
	initial bool

	// Tracing context (internal/trace), armed by SetTrace for one engine
	// call. trc is that call's recording context (zero = disabled: every
	// span call no-ops), trcParent the caller's span the call's root
	// nests under, trcRoot the current apply/converge root the plane
	// spans parent to. NOT cleared by reset: the call that consumes the
	// context clears it (closeRoot, or disarm on a refusal).
	trc       trace.Ctx
	trcParent uint64
	trcRoot   uint64

	// j is the optional route-provenance journal (internal/prov): when
	// attached, every current-route mutation of an event window appends
	// one fixed-size entry. nil costs one predicted branch per change
	// site; attached stays 0 allocs/op (the ring is preallocated). Like
	// the trace context, NOT cleared by reset — the owner manages its
	// lifetime, and initConverge Resets the journal contents instead.
	j *prov.Journal
}

// SetJournal attaches a route-provenance journal: every route change of
// a subsequent event window, in any plane, appends one entry. InitDest,
// ConvergeScratch and ConvergeDest's from-scratch convergence reset the
// journal and record nothing, so an AS with no retained entry holds the
// route it had at the end of the last from-scratch convergence. Pass
// nil to detach.
func (st *State) SetJournal(j *prov.Journal) { st.j = j }

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
func (st *State) note(p int, a, round int32, cause prov.Cause, prev route) {
	pk, pd, pv := prev.split()
	nk, nd, nv := st.cur[p][a].split()
	st.j.Note(a, round, cause, pk, pd, st.nextHopAS(pv), nk, nd, st.nextHopAS(nv))
}

// SetTrace arms the next InitDest, ApplyEvent or ConvergeDest call on
// this state: its spans (apply → cascade → per-plane convergence with
// per-round churn) record in c, with the call's root nested under
// parent (0: the root is a trace root). That call consumes the context
// on every return path, so an unarmed call records nothing. A dead c
// (a nil tracer's, or a decision the sampler skipped) records nothing
// either. Tracing is side-effect only: it never changes outcomes, RNG
// streams or the JSON reports.
func (st *State) SetTrace(c trace.Ctx, parent trace.SpanID) {
	st.trc = c
	st.trcParent = uint64(parent)
}

// disarm drops the context SetTrace armed.
func (st *State) disarm() { st.trc, st.trcParent, st.trcRoot = trace.Ctx{}, 0, 0 }

// openRoot starts the root span of one engine call in the armed
// context, which the plane and cascade spans parent to.
func (st *State) openRoot(name string) trace.Span {
	sp := st.trc.StartChild(trace.SpanID(st.trcParent), name)
	st.trcRoot = uint64(sp.ID())
	return sp
}

// closeRoot ends the root span openRoot started and consumes the armed
// context.
func (st *State) closeRoot(sp *trace.Span) {
	sp.End()
	st.disarm()
}

// planeSpanNames and roundArgKeys are the static span/arg names the
// hot loop uses — indexed, never formatted, so tracing stays 0 allocs.
var planeSpanNames = [planeCount]string{"atlas.plane_bgp", "atlas.plane_red", "atlas.plane_blue"}

var roundArgKeys = [...]string{
	"round1_changed", "round2_changed", "round3_changed",
	"round4_changed", "round5_changed", "round6_changed",
}

// outcome implements engineState.
func (st *State) outcome() *DestOutcome { return &st.out }

// NewState allocates a destination's slabs for the engine's graph. The
// engine keeps at least one idle window in stock, so a single State's
// calls allocate nothing.
func (e *Engine) NewState() *State {
	n := e.g.Len()
	st := &State{
		g:         e.g,
		listCap:   touchedCap(n),
		down:      newBitset(e.g.Edges()),
		nodeDown:  newBitset(n),
		onChain:   newBitset(n),
		chain:     make([]int32, 0, 64),
		prevChain: make([]int32, 0, 64),
	}
	for p := 0; p < planeCount; p++ {
		st.cur[p] = make([]route, n)
		st.adv[p] = make([]int32, n)
		st.custUp[p] = newBitset(n)
		for gen := range st.touched {
			st.touched[gen][p] = make([]int32, 0, st.listCap)
		}
	}
	st.clearRoutes()
	e.mu.Lock()
	if len(e.free) == 0 {
		e.free = append(e.free, newWindow(n))
	}
	e.mu.Unlock()
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

// window is the scratch of one engine call: the frontier and
// publication queues, the MRAI gates, the cascade worklist and the loss
// accounting. Its contents mean something only inside the call, and
// every call leaves them in the same state, so any State may borrow any
// idle window of its engine:
//
//   - every MRAI gate is open (converge reopens the gates it closed);
//   - front and pend are empty, every slot is frontOut, inPend and
//     wantPub are false;
//   - cand is read only under frontOffer, and lostSince is written
//     before it is read (invalidate, route loss, the re-root clear);
//   - the accounting slabs are valid only at ASes stamped with the
//     current epoch, and the epoch is the window's own counter, so the
//     stamps another State left are always older.
//
// A call that fails before its first window opens (apply errors)
// returns the window untouched; a converge that trips its round guard
// leaves it mid-flight, so it is dropped (broken).
type window struct {
	// inFront is an AS's frontier slot state (frontOut … frontScan);
	// cand is its round candidate while the slot is frontOffer: the best
	// offer pushed to it this round, with the via it would install.
	ready     []int32
	front     []int32
	inFront   []int8
	cand      []route
	pend      []int32
	inPend    []bool
	wantPub   []bool
	lostSince []int32
	// casc is the cascade worklist, a stack of capacity touchedCap(n): at
	// least the State's listCap, where cascPush stops.
	casc []int32

	// The leaf replay of a from-scratch window (replayLeaves): pubs holds
	// the window's phase-2 publications in round order, chained per
	// sender: lastPub[a] is the index of a's latest publication and
	// prevPub[i] that of the one before pubs[i] (-1: none). late holds the
	// leaves to replay, and hist and offers one replayed leaf's offers.
	// They are allocated and grow only in from-scratch windows, and every
	// lastPub slot is -1 between windows.
	pubs    []pub
	prevPub []int32
	lastPub []int32
	late    []int32
	hist    []pub
	offers  []int32

	// Per-group accounting. hadStart records, per plane, whether the AS
	// had a route when the group's events hit: loss is only counted for
	// ASes that actually lost service, not for ones a plane never
	// covered (blue legitimately serves a subset of the graph).
	// permMark flags ASes a plane failed to re-serve by group end;
	// their lostAcc then holds the full window outage (gaps + tail) so
	// the STAMP min() sees the dead plane as down all window, while the
	// per-plane transient integral excludes them.
	//
	// In a sparse window (see the State's touched sets) these slabs are
	// valid only at ASes stamped with the window's epoch: the first
	// markChanged of a window initializes the AS's entries, and every
	// reader goes through windowLoss or a touched list. A dense window
	// makes them valid everywhere (densify).
	lostAcc      [planeCount][]int32
	hadStart     [planeCount][]bool
	permMark     [planeCount][]bool
	changedStamp [planeCount][]int32
	epoch        int32
	winEpoch     [planeCount]int32 // epoch of plane p's window in the current group

	broken bool // set by the round guard; takeBack drops the window
}

// pub is one publication: AS (or, in a replay's history, adjacency
// entry) a advertised pref in round.
type pub struct{ a, round, pref int32 }

func newWindow(n int) *window {
	w := &window{
		ready:     make([]int32, n),
		front:     make([]int32, 0, n),
		inFront:   make([]int8, n),
		cand:      make([]route, n),
		pend:      make([]int32, 0, n),
		inPend:    make([]bool, n),
		wantPub:   make([]bool, n),
		lostSince: make([]int32, n),
		casc:      make([]int32, 0, touchedCap(n)),
	}
	for p := 0; p < planeCount; p++ {
		w.lostAcc[p] = make([]int32, n)
		w.hadStart[p] = make([]bool, n)
		w.permMark[p] = make([]bool, n)
		w.changedStamp[p] = make([]int32, n)
	}
	return w
}

// lend gives st an idle window for the call that is starting, allocating
// one when every window is out.
func (e *Engine) lend(st *State) {
	var w *window
	e.mu.Lock()
	if k := len(e.free); k > 0 {
		w, e.free[k-1], e.free = e.free[k-1], nil, e.free[:k-1]
	}
	e.mu.Unlock()
	if w == nil {
		w = newWindow(e.g.Len())
	}
	st.window = w
}

// takeBack returns st's window to the free list when the call ends. A
// broken window is dropped.
func (e *Engine) takeBack(st *State) {
	w := st.window
	st.window = nil
	if w.broken {
		return
	}
	e.mu.Lock()
	e.free = append(e.free, w)
	e.mu.Unlock()
}

// rewindEpoch restarts the epoch before it can wrap: a wrapped counter
// would meet stamps it wrote 2^32 windows ago and read their accounting
// as this window's. It runs only at a group boundary, since a group's
// windows compare their epochs (winEpoch, redEpoch) with each other,
// and it leaves room for every window of the group.
func (w *window) rewindEpoch() {
	if w.epoch > math.MaxInt32-(planeCount+1) {
		for p := range w.changedStamp {
			clear(w.changedStamp[p])
		}
		w.epoch = 0
	}
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
	kind, dist, via := st.cur[p][a].split()
	return kind, dist, st.nextHopAS(via)
}

// reset returns the state to pristine for a new destination shard.
func (st *State) reset(dest topology.ASN) {
	st.dest = dest
	st.visited, st.denseWindows = 0, 0
	st.inited = false
	st.initial = true
	st.withdrawn = false
	clear(st.down)
	clear(st.nodeDown)
	st.clearChain()
	st.clearRoutes()
	st.frontLen, st.pendLen, st.live = 0, 0, false
	st.rewindEpoch()
	// A reset is a window of its own that retains no touched set: no
	// consumer may patch across it.
	st.seq++
	for gen := range st.dense {
		for p := range st.dense[gen] {
			st.dense[gen][p] = true
		}
	}
}

// clearRoutes leaves every plane routeless.
func (st *State) clearRoutes() {
	for p := 0; p < planeCount; p++ {
		for a := range st.cur[p] {
			st.cur[p][a] = noRoute
			st.adv[p][a] = prefNone
		}
		clear(st.custUp[p])
	}
}

// setAdv makes pref a's plane-p advertisement.
func (st *State) setAdv(p int, a, pref int32) {
	st.adv[p][a] = pref
	st.custUp[p].put(a, custOffer(pref) != prefNone)
}

func (st *State) clearChain() {
	for _, v := range st.chain {
		st.onChain.unset(v)
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
	if st.withdrawn || st.nodeDown.has(int32(st.dest)) {
		return !slices.Equal(st.chain, st.prevChain)
	}
	v := int32(st.dest)
	for {
		st.chain = append(st.chain, v)
		st.onChain.set(v)
		lp := int32(-1)
		provs := st.g.Providers(topology.ASN(v))
		base := st.g.off[v]
		for i, p := range provs {
			if st.down.has(base+int32(i)) || st.nodeDown.has(int32(p)) {
				continue
			}
			lp = int32(p)
			break // providers are sorted ascending: first live is lowest
		}
		if lp < 0 || st.onChain.has(lp) {
			break // the second is unreachable in a DAG; guard anyway
		}
		v = lp
	}
	return !slices.Equal(st.chain, st.prevChain)
}

// initPlane seeds a plane from scratch: origin at dest, everything else
// routeless, queues holding just the origin's first advertisement.
// With a journal attached, the wholesale clear of a re-root is journaled
// as an explicit route loss for every AS that held a route (so the
// journal's latest-entry-per-AS invariant survives re-roots), except the
// origin when its pinned route carries over unchanged. A from-scratch
// convergence has nothing to clear: reset left every plane routeless.
func (st *State) initPlane(p int) {
	j := st.j
	origin := !st.withdrawn && !st.nodeDown.has(int32(st.dest))
	d := int32(st.dest)
	keptOrigin := origin && st.cur[p][d].pref != prefNone && st.cur[p][d].via == -2
	cur, adv := st.cur[p], st.adv[p]
	if !st.initial {
		for a := range cur {
			if j != nil && cur[a].pref != prefNone && (int32(a) != d || !keptOrigin) {
				prev := cur[a]
				cur[a] = noRoute
				st.note(p, int32(a), 0, j.WindowCause(0), prev)
			}
			cur[a] = noRoute
			adv[a] = prefNone
		}
		clear(st.custUp[p])
	}
	st.frontLen, st.pendLen = 0, 0
	if !origin {
		return
	}
	cur[d] = route{mkPref(kindCustomer, 0), -2}
	if j != nil && !keptOrigin {
		st.note(p, d, 0, j.WindowCause(0), noRoute)
	}
	st.pendAdd(d)
}

// frontAdd seeds a for a full recompute: cascade victims, event
// endpoints and red dependents changed what a's route is computed from
// in ways no advertisement announces.
func (st *State) frontAdd(a int32) { st.frontSet(a, frontScan) }

// frontSet puts a in the frontier, if it is not there yet, with slot.
func (st *State) frontSet(a int32, slot int8) {
	if st.inFront[a] == frontOut {
		st.front = append(st.front[:st.frontLen], a)
		st.frontLen++
	}
	st.inFront[a] = slot
}

// publish fans a's new plane-p advertisement out to its live neighbors.
// old is the advertisement it replaces. Per group, the offer a neighbor
// hears: a's customers take anything as a provider route, its peers and
// providers only customer routes, and a provider only under the export
// rules.
func (st *State) publish(p int, a int32, old int32) {
	g := st.g
	adv := st.adv[p][a]
	if o, oldO := custOffer(adv), custOffer(old); o != prefNone || oldO != prefNone {
		for e := g.off[a]; e < g.provEnd[a]; e++ {
			if st.climbs(p, a, int32(g.nbr[e])) {
				// A provider has a customer, so it is never a leaf: even a
				// from-scratch window reaches it without fanOut's leaf test.
				st.visited++
				st.reach(p, a, e, o, oldO)
			} else {
				st.fanOut(p, a, e, e+1, prefNone, prefNone)
			}
		}
	} else {
		st.fanOut(p, a, g.off[a], g.provEnd[a], prefNone, prefNone)
	}
	st.fanOut(p, a, g.provEnd[a], g.peerEnd[a], peerOffer(adv), peerOffer(old))
	st.fanCustomers(p, a, provOffer(adv), provOffer(old))
}

// fanOut reaches the neighbors in entries [lo, hi) of a's row, all of
// which hear the same offer o where they heard old. When neither is an
// offer the group can move no route and visits nothing; it only sets
// st.live if a neighbor is live (see reach). A from-scratch window
// reaches no leaf, a leaf destination included (see fanCustomers): a
// live leaf entry only sets st.live, as reach would have run the next
// round for it, and visits nothing, like anyLive. publish reaches an offered provider, never a leaf, without this test;
// customers, most of which are leaves, take fanCustomers' index instead.
func (st *State) fanOut(p int, a, lo, hi int32, o, old int32) {
	if o == prefNone && old == prefNone {
		st.live = st.live || st.anyLive(lo, hi)
		return
	}
	if !st.initial {
		st.visited += int64(hi - lo)
		for e := lo; e < hi; e++ {
			st.reach(p, a, e, o, old)
		}
		return
	}
	g := st.g
	for e := lo; e < hi; e++ {
		if g.leaf.has(int32(g.nbr[e])) {
			if !st.live {
				st.live = st.liveEntry(e)
			}
			continue
		}
		st.visited++
		st.reach(p, a, e, o, old)
	}
}

// fanCustomers is fanOut over a's customers. A from-scratch window
// reaches only the customers that are not leaves, by the graph's transit
// index; then, only while st.live is still false, it probes the leaf
// entries for a live one. A leaf destination is among them: its route
// is pinned, or it is down or withdrawn and routes nothing, so reaching
// it could only have set st.live.
func (st *State) fanCustomers(p int, a, o, old int32) {
	g := st.g
	lo, hi := g.peerEnd[a], g.off[a+1]
	if !st.initial || (o == prefNone && old == prefNone) {
		st.fanOut(p, a, lo, hi, o, old)
		return
	}
	transit := g.transit[g.transitOff[a]:g.transitOff[a+1]]
	st.visited += int64(len(transit))
	for _, e := range transit {
		st.reach(p, a, e, o, old)
	}
	for e := lo; e < hi && !st.live; e++ {
		if g.leaf.has(int32(g.nbr[e])) {
			st.live = st.liveEntry(e)
		}
	}
}

// anyLive reports whether any entry in [lo, hi) is live.
func (st *State) anyLive(lo, hi int32) bool {
	for e := lo; e < hi; e++ {
		if st.liveEntry(e) {
			return true
		}
	}
	return false
}

// liveEntry reports whether entry e leads over a live link to a live AS.
func (st *State) liveEntry(e int32) bool {
	return !st.down.has(e) && !st.nodeDown.has(int32(st.g.nbr[e]))
}

// reach queues neighbor w = nbr[e] for the next round on a's
// publication, as far as that can move w's route. a now offers w the
// route preference o (prefNone: nothing), where it offered old. Phase 1
// reads only advertisements, and w's route was the best of them when
// last computed, so only two things can move it: its next hop's offer
// changed (a is that next hop: full recompute), or an offer arrived that
// strictly beats the best w holds or was already offered this round (w
// takes it as its round candidate). Anything else leaves w's route where
// it is and w out of the frontier; st.live still runs the next round, so
// the round count does not depend on which reached ASes could move.
//
// The candidate carries the via entry it would install, rev[e]: the
// entry of a in w's row. Both tests against w's best compare via
// entries, not the ASes behind them. Freeze rejects duplicate pairs, so
// a has exactly one entry in w's row: a is w's next hop iff best.via ==
// rev[e]. Equal preferences mean equal kinds, so on a tie both entries
// lie in the same class group of w's row, which ascends by neighbor:
// the lower sender holds the lower entry. Vias -1 and -2 tie no offer.
func (st *State) reach(p int, a, e int32, o, old int32) {
	g := st.g
	w := int32(g.nbr[e])
	if st.down.has(e) || st.nodeDown.has(w) {
		return
	}
	slot := st.inFront[w]
	if slot == frontScan {
		return
	}
	best := st.cur[p][w]
	ra := g.rev[e]
	// A route through a is a's old offer, so only a route that equals it
	// needs its via entry compared.
	if old != prefNone && best.pref == old && best.via == ra {
		st.frontSet(w, frontScan)
		return
	}
	if slot == frontOffer {
		best = st.cand[w]
	}
	// recompute's order: preference, then the lower sender. prefNone
	// offers nothing, and the origin's pinned route is beaten by no
	// offer.
	if o < best.pref || (o == best.pref && ra < best.via) {
		st.cand[w] = route{o, ra}
		st.frontSet(w, frontOffer)
		return
	}
	st.live = true
}

// takeOffer installs a's round candidate as its route. The candidate
// strictly beats a's route and did not come from a's next hop, so it is
// what recompute would pick, found without the row scan.
func (st *State) takeOffer(p int, a int32) { st.cur[p][a] = st.cand[a] }

func (st *State) pendAdd(a int32) {
	st.wantPub[a] = true
	if !st.inPend[a] {
		st.inPend[a] = true
		st.pend = append(st.pend[:st.pendLen], a)
		st.pendLen++
	}
}

// climbs reports whether STAMP's selective announcement rules let
// customer w's customer route climb to its provider a. Valley-freedom
// (only customer routes climb) is the caller's test.
func (st *State) climbs(p int, w, a int32) bool {
	switch p {
	case planeRed:
		// The locked blue provider receives no red.
		return !st.onChain.has(w) || st.lockOf(w) != a
	case planeBlue:
		if st.onChain.has(w) {
			// Locked blue climbs exactly one provider edge.
			return st.lockOf(w) == a
		}
		// Red precedence: an off-chain AS whose red route is exportable
		// up sends red to every provider, so blue stays home. (Red has
		// already converged for this window.)
		return st.cur[planeRed][w].pref>>kindShift != int32(kindCustomer)
	}
	return true
}

// lockOf returns the provider chain member w locks: the next member up,
// or -1 at the top.
func (st *State) lockOf(w int32) int32 {
	for i := 0; i+1 < len(st.chain); i++ {
		if st.chain[i] == w {
			return st.chain[i+1]
		}
	}
	return -1
}

// recompute evaluates a's best plane-p route from its neighbors'
// advertisements, returning true when the current route changed. Any
// customer offer beats every peer and provider offer, and any peer offer
// every provider offer, so the row is scanned customers first and the
// scan stops at the first class that offers a route. Within a class the
// entries ascend by neighbor, so the first of equal offers is the lower
// sender's. Customers and peers offer only a customer route, so those
// scans pass over every neighbor outside custUp first: most customers
// of a large provider advertise a provider route.
func (st *State) recompute(p int, a int32) bool {
	g := st.g
	best := noRoute
	if !st.nodeDown.has(a) {
		lo, hi := g.off[a], g.off[a+1]
		provEnd, peerEnd := g.provEnd[a], g.peerEnd[a]
		st.visited += int64(hi - lo)
		adv, up := st.adv[p], st.custUp[p]
		// Customers announcing up, under the export rules.
		for e := peerEnd; e < hi; e++ {
			w := int32(g.nbr[e])
			if !up.has(w) || st.down.has(e) || st.nodeDown.has(w) {
				continue
			}
			if o := custOffer(adv[w]); o < best.pref && st.climbs(p, w, a) {
				best = route{o, e}
			}
		}
		// Peers pass on only customer routes.
		if best.pref == prefNone {
			for e := provEnd; e < peerEnd; e++ {
				w := int32(g.nbr[e])
				if !up.has(w) || st.down.has(e) || st.nodeDown.has(w) {
					continue
				}
				if o := peerOffer(adv[w]); o < best.pref {
					best = route{o, e}
				}
			}
		}
		// Providers export anything downhill.
		if best.pref == prefNone {
			for e := lo; e < provEnd; e++ {
				w := int32(g.nbr[e])
				if st.down.has(e) || st.nodeDown.has(w) {
					continue
				}
				if o := provOffer(adv[w]); o < best.pref {
					best = route{o, e}
				}
			}
		}
	}
	if best == st.cur[p][a] {
		return false
	}
	st.cur[p][a] = best
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
	cur, had := st.cur[p], st.hadStart[p]
	if fresh {
		clear(st.lostAcc[p])
		clear(st.permMark[p])
		for a, r := range cur {
			had[a] = r.pref != prefNone
		}
		return
	}
	stamp := st.changedStamp[p]
	for a := range stamp {
		if stamp[a] != st.epoch {
			had[a] = cur[a].pref != prefNone
			st.lostAcc[p][a] = 0
			st.permMark[p][a] = false
		}
	}
}

// converge runs plane p to fixpoint, starting from whatever the queues
// hold, tracking loss and churn into out (an initial window tracks
// neither). This is the hot loop: it allocates nothing (front/pend were
// sized to n up front).
func (st *State) converge(p int, mrai int32, out *PlaneOutcome) (int32, error) {
	g := st.g
	st.seedFront[p] = int32(st.frontLen)
	sp := st.trc.StartChild(trace.SpanID(st.trcRoot), planeSpanNames[p])
	traced := sp.Live()
	if traced {
		sp.Arg("seed_frontier", int64(st.frontLen))
	}
	// changed counts the distinct ASes whose route changed in an event
	// window.
	initial := st.initial
	changed := int64(0)
	j := st.j
	if initial {
		st.pubs, st.prevPub = st.pubs[:0], st.prevPub[:0]
		if st.lastPub == nil {
			st.lastPub = make([]int32, g.Len())
			for a := range st.lastPub {
				st.lastPub[a] = -1
			}
		}
	}
	// Safety bound: Gao-Rexford policies are provably safe under any
	// activation order, so this fires only on an engine bug.
	maxRounds := int32(10_000) + 16*int32(g.Len())
	round := int32(0)
	for st.frontLen > 0 || st.pendLen > 0 || st.live {
		round++
		st.live = false
		if round > maxRounds {
			sp.End()
			st.broken = true
			return round, fmt.Errorf("atlas: plane %d exceeded %d rounds at dest %d; engine bug", p, maxRounds, st.dest)
		}
		var cause prov.Cause
		if j != nil {
			cause = j.WindowCause(round)
		}
		roundChanged := changed
		// Phase 1: every frontier AS re-evaluates from advertisements, as
		// far as its slot says the last round's can have moved its route.
		fl := st.frontLen
		st.frontLen = 0
		st.visited += int64(fl)
		for i := 0; i < fl; i++ {
			a := st.front[i]
			slot := st.inFront[a]
			st.inFront[a] = frontOut
			if topology.ASN(a) == st.dest && !st.withdrawn && !st.nodeDown.has(a) {
				continue // the origin's route is pinned
			}
			prev := st.cur[p][a]
			had := prev.pref != prefNone
			if slot == frontOffer {
				st.takeOffer(p, a)
			} else if !st.recompute(p, a) {
				continue
			}
			if j != nil {
				st.note(p, a, round, cause, prev)
			}
			pref := st.cur[p][a].pref
			if !initial {
				if st.markChanged(p, a, had) {
					changed++
				}
				has := pref != prefNone
				if st.hadStart[p][a] {
					if had && !has {
						st.lostSince[a] = round
					}
					if !had && has {
						st.lostAcc[p][a] += round - st.lostSince[a]
					}
				}
			}
			switch old := st.adv[p][a]; {
			case pref == old:
				st.wantPub[a] = false
			case !st.inPend[a] && round >= st.ready[a] && g.leaf.has(a) &&
				custOffer(pref) == prefNone && custOffer(old) == prefNone:
				// A customerless AS whose old and new advertisements are
				// both non-customer routes offers no neighbor anything, so
				// its phase-2 publish would only record: publish it here.
				// Phase 2 would publish the same word (cur moves only in
				// phase 1), no phase-1 scan reads the adv of an AS outside
				// custUp, and the window-end gate reopen covers a changed
				// AS.
				st.setAdv(p, a, pref)
				st.ready[a] = round + mrai
				st.live = st.live || st.anyLive(g.off[a], g.peerEnd[a])
			default:
				st.pendAdd(a)
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
			old := st.adv[p][a]
			st.setAdv(p, a, st.cur[p][a].pref)
			st.ready[a] = round + mrai
			st.publish(p, a, old)
			if initial {
				st.prevPub = append(st.prevPub, st.lastPub[a])
				st.lastPub[a] = int32(len(st.pubs))
				st.pubs = append(st.pubs, pub{a, round, st.adv[p][a]})
			}
		}
		st.pendLen = w
		if traced && !initial && round <= int32(len(roundArgKeys)) {
			sp.Arg(roundArgKeys[round-1], changed-roundChanged)
		}
	}
	if initial {
		round = st.replayLeaves(mrai, round)
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
	if !initial {
		out.Changed += changed
	}
	if traced {
		// A from-scratch window's leaves settle after its span ends, so its
		// span reports no changed counts.
		sp.Arg("rounds", int64(round))
		if !initial {
			sp.Arg("changed", changed)
		}
		sp.End()
	}
	return round, nil
}

// settleLeaves ends a from-scratch convergence, whose windows reached
// no leaf: an AS without customers other than the destination,
// which the loop treats as any other AS. Every leaf is still routeless
// on every plane here, and no loop read a leaf's route: a leaf holds no
// customer route, so it is outside custUp and no customer or peer scan
// reads its advertisement, and it is nobody's provider. Blue's red
// precedence (climbs) reads a red route only at a custUp member or a
// publisher, neither of which is a leaf. Each leaf that is up therefore
// takes, on each plane, the best offer of its live providers and peers
// at that plane's fixpoint, by recompute's rule, and advertises it, as
// the loops would have left it. One pass over the leaves reads each row
// once and tests each entry's liveness once for all three planes: peers
// first, since any peer offer beats every provider offer, then
// providers, each group ascending, so the first of equal offers is the
// lower entry.
func (st *State) settleLeaves() {
	g := st.g
	dest := int32(st.dest)
	for i, word := range g.leaf {
		for ; word != 0; word &= word - 1 {
			if a := int32(i<<6 | bits.TrailingZeros64(word)); a != dest && !st.nodeDown.has(a) {
				st.settleLeaf(a)
			}
		}
	}
}

// settleLeaf routes leaf a on every plane from its senders' final
// advertisements. Like recompute once per plane, it visits a's row
// planeCount times. A leaf's route is never a customer route, so its
// advertisement leaves its custUp bits clear, as reset left them.
func (st *State) settleLeaf(a int32) {
	g := st.g
	lo, provEnd, hi := g.off[a], g.provEnd[a], g.peerEnd[a]
	st.visited += planeCount * int64(hi-lo)
	best := [planeCount]route{noRoute, noRoute, noRoute}
	for e := provEnd; e < hi; e++ {
		if !st.liveEntry(e) {
			continue
		}
		w := g.nbr[e]
		for p := range best {
			if o := peerOffer(st.adv[p][w]); o < best[p].pref {
				best[p] = route{o, e}
			}
		}
	}
	for e := lo; e < provEnd; e++ {
		if !st.liveEntry(e) {
			continue
		}
		w := g.nbr[e]
		for p := range best {
			if o := provOffer(st.adv[p][w]); o < best[p].pref {
				best[p] = route{o, e}
			}
		}
	}
	for p, r := range best {
		st.cur[p][a] = r
		st.adv[p][a] = r.pref
	}
}

// replayLeaves ends a from-scratch window's loop, which ran rounds rounds,
// and returns the window's round count, which still owes the rounds the
// leaves' publications would have run: a leaf publication runs the next
// round, and a queued one keeps the loop running until its gate opens.
// A leaf takes its last route at most one round after its live senders'
// last publication, and its MRAI gate holds that route back at most
// max(1, mrai)-1 rounds more. So only a leaf with a live sender that
// published in the loop's last max(1, mrai) rounds can publish in the
// loop's last round or later. replayLeaf replays exactly those, and the
// window's round count becomes the later of the loop's count and the
// round after the last leaf publication. The leaves' routes wait for
// settleLeaves.
func (st *State) replayLeaves(mrai, rounds int32) int32 {
	g := st.g
	dest := int32(st.dest)
	since := rounds - max(1, mrai)
	st.late = st.late[:0]
	for i := len(st.pubs) - 1; i >= 0 && st.pubs[i].round >= since; i-- {
		s := st.pubs[i].a
		for e := g.provEnd[s]; e < g.off[s+1]; e++ {
			if w := int32(g.nbr[e]); g.leaf.has(w) && w != dest && st.liveEntry(e) {
				st.late = append(st.late, w)
			}
		}
	}
	if len(st.late) > 0 {
		slices.Sort(st.late)
		st.late = slices.Compact(st.late)
		for _, a := range st.late {
			if last := st.replayLeaf(a, mrai); last >= rounds {
				rounds = last + 1
			}
		}
	}
	for _, x := range st.pubs {
		st.lastPub[x.a] = -1
	}
	return rounds
}

// replayLeaf replays leaf a through a from-scratch window from its live
// senders' publication chains and returns the round of its last
// publication (0: none). Phase 1 of round u+1 gives a the best offer its
// senders advertised at the end of round u, a sender's later offer
// replacing its earlier one. a's MRAI gate runs as converge runs it: a
// changed route that differs from a's advertisement publishes in place
// when the gate is open and nothing is queued; otherwise it is queued
// and publishes at the first open gate with the route then held, and the
// queued entry drops when the route returns to the advertisement.
func (st *State) replayLeaf(a, mrai int32) int32 {
	g := st.g
	lo, provEnd, hi := g.off[a], g.provEnd[a], g.peerEnd[a]
	st.hist = st.hist[:0]
	for e := lo; e < hi; e++ {
		if !st.liveEntry(e) {
			continue
		}
		for i := st.lastPub[g.nbr[e]]; i >= 0; i = st.prevPub[i] {
			x := st.pubs[i]
			o := peerOffer(x.pref)
			if e < provEnd {
				o = provOffer(x.pref)
			}
			st.hist = append(st.hist, pub{e, x.round, o})
		}
	}
	slices.SortFunc(st.hist, func(x, y pub) int { return cmp.Compare(x.round, y.round) })
	st.offers = slices.Grow(st.offers[:0], int(hi-lo))[:hi-lo]
	for k := range st.offers {
		st.offers[k] = prefNone
	}
	cur, adv := noRoute, prefNone
	ready, last, queued := int32(0), int32(0), false
	for i := 0; i < len(st.hist); {
		u := st.hist[i].round
		for ; i < len(st.hist) && st.hist[i].round == u; i++ {
			st.offers[st.hist[i].a-lo] = st.hist[i].pref
		}
		t := u + 1
		if queued && ready < t {
			adv, last, ready, queued = cur.pref, ready, ready+mrai, false
		}
		// recompute's order: preference, then the lower entry.
		best := noRoute
		for k, o := range st.offers {
			if o < best.pref {
				best = route{o, lo + int32(k)}
			}
		}
		if best == cur {
			continue
		}
		cur = best
		switch {
		case cur.pref == adv:
			queued = false
		case t >= ready:
			adv, last, ready, queued = cur.pref, t, t+mrai, false
		default:
			queued = true
		}
	}
	if queued {
		last = ready
	}
	return last
}

// cascade invalidates every plane-p route whose forwarding chain
// crosses a dead link or AS, clearing cur and adv together (the engine
// propagates withdrawals instantaneously — see the package comment) and
// queueing the victims for re-convergence.
//
// Before the group's events the state was a fixpoint with no dead route
// in it, so the only routes that can be dead on arrival are at the
// events' endpoints, and every later victim lost its next hop to an
// earlier one. The worklist therefore starts at the endpoints and
// follows reverse next-hop dependencies. The victims are the closure of
// that relation, so the order they are visited in cannot change which
// they are. A worklist that outgrows its fixed capacity hands over to
// the dense sweeps.
func (st *State) cascade(p int, group []scenario.Event, out *PlaneOutcome) {
	g := st.g
	sp := st.trc.StartChild(trace.SpanID(st.trcRoot), "atlas.cascade")
	startChanged := out.Changed
	st.casc = st.casc[:0]
	seeded := true
	for _, ev := range group {
		switch ev.Op {
		case scenario.OpFailLink:
			seeded = seeded && st.cascPush(int32(ev.A)) && st.cascPush(int32(ev.B))
		case scenario.OpFailNode:
			seeded = seeded && st.cascPush(int32(ev.Node))
			for e := g.off[ev.Node]; seeded && e < g.off[ev.Node+1]; e++ {
				seeded = st.cascPush(int32(g.nbr[e]))
			}
		case scenario.OpWithdraw:
			seeded = seeded && st.cascPush(int32(ev.Node))
		}
	}
	for seeded && len(st.casc) > 0 {
		a := st.casc[len(st.casc)-1]
		st.casc = st.casc[:len(st.casc)-1]
		st.visited++
		if !st.routeDead(p, a) {
			continue
		}
		st.invalidate(p, a, out)
		// a's dependents — neighbors forwarding through a — are dead now.
		st.visited += int64(g.off[a+1] - g.off[a])
		for e := g.off[a]; seeded && e < g.off[a+1]; e++ {
			w := int32(g.nbr[e])
			r := st.cur[p][w]
			if r.pref == prefNone {
				continue
			}
			if v := r.via; v >= 0 && int32(g.nbr[v]) == a {
				seeded = st.cascPush(w)
			}
		}
	}
	if !seeded {
		st.cascadeSweeps(p, out)
	}
	if sp.Live() {
		sp.Arg("plane", int64(p))
		sp.Arg("invalidated", out.Changed-startChanged)
		sp.Arg("frontier", int64(st.frontLen))
		sp.End()
	}
}

// cascPush adds a to the cascade worklist; false means it is full.
func (st *State) cascPush(a int32) bool {
	if len(st.casc) == st.listCap {
		return false
	}
	st.casc = append(st.casc, a)
	return true
}

// routeDead reports whether a's plane-p route (if any) crosses a dead
// link or AS, or leads to a neighbor that has lost its own route.
func (st *State) routeDead(p int, a int32) bool {
	r := st.cur[p][a]
	if r.pref == prefNone {
		return false
	}
	if st.nodeDown.has(a) {
		return true
	}
	e := r.via
	if topology.ASN(a) == st.dest && e == -2 {
		return st.withdrawn
	}
	next := int32(st.g.nbr[e])
	return st.down.has(e) || st.nodeDown.has(next) || st.cur[p][next].pref == prefNone
}

// invalidate withdraws a's plane-p route (cur and adv together) and
// queues a for re-convergence.
func (st *State) invalidate(p int, a int32, out *PlaneOutcome) {
	prev := st.cur[p][a]
	st.cur[p][a] = noRoute
	st.setAdv(p, a, prefNone)
	st.lostSince[a] = 0
	if st.j != nil {
		st.note(p, a, 0, prov.CauseCascade, prev)
	}
	if st.markChanged(p, a, true) {
		out.Changed++
	}
	st.frontAdd(a)
}

// cascadeSweeps is the dense cascade: ascending sweeps over all ASes
// until one invalidates nothing.
func (st *State) cascadeSweeps(p int, out *PlaneOutcome) {
	n := int32(st.g.Len())
	for {
		st.visited += int64(n)
		any := false
		for a := int32(0); a < n; a++ {
			if st.routeDead(p, a) {
				st.invalidate(p, a, out)
				any = true
			}
		}
		if !any {
			return
		}
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
	if st.hadStart[p][a] && st.cur[p][a].pref == prefNone {
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

// ErrRefused matches, under errors.Is, the error ApplyEvent returns for
// an event the state already reflects: failing a link or an AS that is
// down, or restoring a link that is up. apply refuses such an event
// before it changes any link, node or route, so the caller may skip it
// and go on.
var ErrRefused = errors.New("atlas: event refused")

// refused is one refusal; its text names the link or AS.
type refused string

func (r refused) Error() string        { return string(r) }
func (r refused) Is(target error) bool { return target == ErrRefused }

// apply mutates link/node/origin state for one event.
func (st *State) apply(ev scenario.Event) error {
	g := st.g
	switch ev.Op {
	case scenario.OpFailLink, scenario.OpRestoreLink:
		e1 := g.entryIndex(ev.A, ev.B)
		if e1 < 0 {
			return fmt.Errorf("atlas: no link %d--%d", ev.A, ev.B)
		}
		e2 := g.rev[e1]
		down := ev.Op == scenario.OpFailLink
		if st.down.has(e1) == down {
			state := "up"
			if down {
				state = "down"
			}
			return refused(fmt.Sprintf("atlas: link %d--%d already %s", ev.A, ev.B, state))
		}
		st.down.put(e1, down)
		st.down.put(e2, down)
	case scenario.OpFailNode:
		if st.nodeDown.has(int32(ev.Node)) {
			return refused(fmt.Sprintf("atlas: AS %d already down", ev.Node))
		}
		st.nodeDown.set(int32(ev.Node))
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
// runs against. The flat slab State and the tests' map-backed reference
// state both implement it, so the two engines cannot drift semantically:
// only the storage layout differs. Methods are window-granular — interface
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
	// settleLeaves ends a from-scratch convergence after blue's window.
	settleLeaves()
	settleGroup(p int, endRound int32, out *PlaneOutcome)
	accumulateGroupLoss(out *DestOutcome)
	accumulateFinal(out *DestOutcome)
	// provJournal returns the attached route-provenance journal (nil
	// when detached); the driver stages event/window context on it so
	// both engines journal identically, and detaches it while a
	// from-scratch convergence runs.
	provJournal() *prov.Journal
	SetJournal(j *prov.Journal)
}

// ConvergeDest runs one destination shard: initial three-plane
// convergence, then every event group of the script with full
// re-convergence and loss accounting in between. The script's link and
// node events are applied globally; its Dest field is ignored (each
// shard is its own origin).
func (e *Engine) ConvergeDest(st *State, dest topology.ASN, groups [][]scenario.Event) (DestOutcome, error) {
	sp := st.openRoot("atlas.converge_dest")
	e.lend(st)
	out, err := convergeDest(st, e.p, dest, groups)
	e.takeBack(st)
	sp.Arg("dest", int64(dest))
	sp.Arg("groups", int64(len(groups)))
	st.closeRoot(&sp)
	st.inited = err == nil
	return out, err
}

// mraiRounds normalizes Params.MRAIRounds for the converge loop (a
// negative value becomes 0: no pacing).
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
// red fixpoint and the lock chain). Initial propagation is not loss or
// churn: reset marks the windows initial, and they account neither. Nor
// is it provenance: an attached journal is reset and records nothing,
// so an AS with no entry holds the route this convergence left it.
func initConverge(st engineState, params Params, dest topology.ASN, pre []scenario.Event) error {
	st.reset(dest)
	j := st.provJournal()
	j.Reset()
	st.SetJournal(nil)
	defer st.SetJournal(j)
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
		st.initPlane(p)
		rounds, err := st.converge(p, mrai, planes[p])
		if err != nil {
			return err
		}
		planes[p].InitRounds = rounds
	}
	st.settleLeaves()
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
	sp := st.openRoot("atlas.init_dest")
	e.lend(st)
	err := initConverge(st, e.p, dest, nil)
	e.takeBack(st)
	sp.Arg("dest", int64(dest))
	st.closeRoot(&sp)
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
		st.disarm()
		return EventCost{}, fmt.Errorf("atlas: ApplyEvent on a state that was never converged (call InitDest first)")
	}
	var start time.Time
	if e.metrics != nil {
		start = time.Now()
	}
	sp := st.openRoot("atlas.apply_event")
	st.evScratch[0] = ev
	e.lend(st)
	cost, err := applyEventGroup(st, e.p, st.evScratch[:1])
	e.takeBack(st)
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
	}
	st.closeRoot(&sp)
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
	e.lend(st)
	err := initConverge(st, e.p, dest, events)
	e.takeBack(st)
	st.inited = err == nil
	return err
}

// beginGroup implements engineState: advance the window sequence and
// start the generation's touched sets empty. The window-start routes the
// dense engine snapshots here are captured lazily instead, by the first
// markChanged of each AS.
func (st *State) beginGroup() {
	st.initial = false
	st.seq++
	gen := st.seq & 1
	for p := 0; p < planeCount; p++ {
		st.touched[gen][p] = st.touched[gen][p][:0]
		st.dense[gen][p] = false
	}
	st.visited, st.denseWindows = 0, 0
	st.rewindEpoch()
}

// beginWindow implements engineState. A sparse window needs no clearing
// at all: beginGroup emptied its touched list, accounting entries are
// initialized on first touch, converge reopens the MRAI gates it closed,
// and lostSince is written before it is read. A re-root starts dense —
// initPlane wipes the plane without marking anything changed, and
// re-learned routes are measured from round 0 — as does every window of
// a state with no list capacity (setListCap(0)). A window of a
// from-scratch convergence is dense too (reset left both generations
// dense), but reads no accounting, so it initializes none: it counts
// only the pass that reopens every MRAI gate.
func (st *State) beginWindow(p int, reroot bool) int32 {
	st.epoch++
	st.winEpoch[p] = st.epoch
	st.frontLen, st.pendLen, st.live = 0, 0, false
	switch {
	case st.initial:
		st.denseWindows++
		st.visited += int64(st.g.Len())
	case reroot || st.listCap == 0:
		st.densify(p, true)
		if reroot {
			clear(st.lostSince)
		}
	}
	return st.epoch
}

// windowLoss returns plane p's accounting for AS a in the current
// group: accumulated routeless rounds, whether the plane served a at
// group start, and whether it failed to re-serve a by window end. An AS
// a sparse window never touched kept its route (or its lack of one)
// throughout.
func (st *State) windowLoss(p int, a int32) (lost int32, had, perm bool) {
	if st.dense[st.seq&1][p] || st.changedStamp[p][a] == st.winEpoch[p] {
		return st.lostAcc[p][a], st.hadStart[p][a], st.permMark[p][a]
	}
	return 0, st.cur[p][a].pref != prefNone, false
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
	if st.cur[planeRed][a].pref == prefNone && st.cur[planeBlue][a].pref == prefNone {
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
		hasRed := st.cur[planeRed][a].pref != prefNone
		hasBlue := st.cur[planeBlue][a].pref != prefNone
		if st.cur[planeBGP][a].pref == prefNone {
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
// the AS itself, for blue re-evaluation.
func (st *State) seedRedDependents(redEpoch int32) {
	gen := st.seq & 1
	if !st.dense[gen][planeRed] {
		red := st.touched[gen][planeRed]
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
