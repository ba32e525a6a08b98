// Package emu boots an entire AS topology as live STAMP speakers: one
// red/blue routing-process pair per AS, running the exact protocol logic
// of internal/core over real netd wire sessions instead of the
// discrete-event simulator. A pluggable Transport carries the sessions —
// in-memory pipes (with both colors multiplexed over one wire.Mux) for
// scale and CI, TCP loopback for realism. A scenario engine injects the
// paper's failure workloads in wall-clock time, an exact in-flight count
// decides convergence, and a differential validator diffs every
// speaker's red/blue RIB against the simulator's tables on the same
// topology and script.
package emu

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stamp/internal/bgp"
	"stamp/internal/core"
	"stamp/internal/netd"
	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/topology"
	"stamp/internal/wire"
)

// Options configures a live emulation fabric.
type Options struct {
	// Graph is the AS topology (required, at most 65534 ASes so ASNs fit
	// the wire protocol's 16-bit AS numbers).
	Graph *topology.Graph
	// Transport selects the session carrier: "pipe" (default) or "tcp".
	Transport string
	// Workers sizes the boot worker pool that wires links in parallel
	// (<= 0: 8).
	Workers int
	// ConvergeTimeout bounds one WaitConverged call (default 120 s).
	ConvergeTimeout time.Duration
}

const (
	// holdTime is the per-session BGP hold time. It comfortably exceeds
	// any run, so keepalive traffic never interleaves with convergence.
	holdTime = time.Hour
	// establishTimeout bounds session establishment, at boot and on a
	// link restore.
	establishTimeout = 60 * time.Second
)

func (o Options) withDefaults() Options {
	if o.Transport == "" {
		o.Transport = "pipe"
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.ConvergeTimeout == 0 {
		o.ConvergeTimeout = 120 * time.Second
	}
	return o
}

// linkKey canonicalizes an undirected link.
type linkKey struct{ a, b topology.ASN }

func mkLink(a, b topology.ASN) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// epKey addresses one of a router's session endpoints.
type epKey struct {
	nbr   topology.ASN
	color bgp.Color
}

// endpoint is one live session endpoint plus its outbound queue. The
// queue decouples protocol work (done under the router mutex) from
// socket writes, so cyclic write backpressure between routers can never
// deadlock the fleet.
type endpoint struct {
	owner *router
	nbr   topology.ASN
	color bgp.Color
	sess  *netd.Session
	est   chan struct{}

	// written counts the UPDATEs this endpoint's writer put on the wire,
	// received those its session handed to inbound. Each is touched only
	// by its own goroutine until the session pair settles.
	written, received int64

	mu   sync.Mutex
	q    []*wire.Update
	dead bool
	sig  chan struct{} // cap 1
}

// push enqueues an update for the writer; false when the endpoint is
// dead (its session severed).
func (ep *endpoint) push(u *wire.Update) bool {
	ep.mu.Lock()
	if ep.dead {
		ep.mu.Unlock()
		return false
	}
	ep.q = append(ep.q, u)
	ep.mu.Unlock()
	select {
	case ep.sig <- struct{}{}:
	default:
	}
	return true
}

// pop blocks for the next queued update; false when the session dies.
func (ep *endpoint) pop() (*wire.Update, bool) {
	for {
		ep.mu.Lock()
		if len(ep.q) > 0 {
			u := ep.q[0]
			ep.q = ep.q[1:]
			ep.mu.Unlock()
			return u, true
		}
		ep.mu.Unlock()
		select {
		case <-ep.sig:
		case <-ep.sess.Done():
			return nil, false
		}
	}
}

// queued reports the number of not-yet-written updates.
func (ep *endpoint) queued() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.q)
}

// sessionPair is one color's session across one link: its two endpoints
// and the four goroutines (two sessions, two writers) that serve them.
type sessionPair struct {
	ends [2]*endpoint
	live atomic.Int32 // goroutines not yet exited
}

// liveLink is the live state of one topology link.
type liveLink struct {
	a, b topology.ASN
	down atomic.Bool

	mu    sync.Mutex
	eps   []*endpoint // current-generation endpoints (4: 2 colors × 2 sides)
	sever func()
}

// router is one emulated AS: the shared-with-sim STAMP node (red + blue
// bgp.Speaker) plus its live session endpoints. All protocol work for
// the AS is serialized by mu, mirroring a real router's single routing
// process event loop.
type router struct {
	f    *Fabric
	as   topology.ASN
	mu   sync.Mutex
	eng  *sim.Engine
	node *core.Node
	eps  map[epKey]*endpoint

	lastChange time.Time // wall time of the last best-route change
}

// drain runs the router's immediate-event queue (MRAI and settle timers
// are disabled, so every queued event is due now); callers hold r.mu.
func (r *router) drain() {
	if _, err := r.eng.Run(); err != nil {
		r.f.fail(fmt.Errorf("emu: AS %d engine: %w", r.as, err))
	}
}

// Fabric is a running live emulation: every AS of the topology as a live
// STAMP router pair, wired by a Transport. It implements
// scenario.Executor, so scripts drive it exactly like the simulator.
type Fabric struct {
	opts      Options
	g         *topology.Graph
	transport Transport
	routers   []*router

	linksMu sync.RWMutex
	links   map[linkKey]*liveLink

	// The in-flight ledger. An UPDATE is pushed just before it is queued
	// and retired exactly once: processed by its receiver, or dropped
	// (refused by a dead queue, discarded with one, failed by its writer,
	// or lost in a severed transport). pushed - processed - dropped is
	// the in-flight count; the retirement that empties it stamps quietAt.
	flightMu                   sync.Mutex
	pushed, processed, dropped int64
	quietAt                    time.Time

	updatesSent atomic.Int64

	errMu sync.Mutex
	err   error

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds the fabric: routers and protocol state only. Boot wires the
// links.
func New(opts Options) (*Fabric, error) {
	opts = opts.withDefaults()
	g := opts.Graph
	if g == nil || g.Len() == 0 {
		return nil, fmt.Errorf("emu: nil or empty topology")
	}
	if g.Len() > 65534 {
		return nil, fmt.Errorf("emu: %d ASes exceed 16-bit AS numbers", g.Len())
	}
	tr, err := NewTransport(opts.Transport)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		opts:      opts,
		g:         g,
		transport: tr,
		routers:   make([]*router, g.Len()),
		links:     make(map[linkKey]*liveLink, g.EdgeCount()),
	}
	for a := 0; a < g.Len(); a++ {
		r := &router{
			f:   f,
			as:  topology.ASN(a),
			eng: sim.NewEngine(sim.Params{MRAIEnabled: false}, int64(a)+1),
			eps: make(map[epKey]*endpoint),
		}
		r.node = core.NewNode(r.as, g, r.eng, fabricNet{f})
		// Lock choices must be RNG-free so the simulator reference run
		// makes the identical picks (see SimTables).
		r.node.BluePick = core.FirstBluePicker()
		r.node.OnTableChange = func() { r.lastChange = time.Now() }
		f.routers[a] = r
	}
	return f, nil
}

// fabricNet adapts the fabric to core.Network: the same interface
// sim.Network implements, which is what lets one core.Node run in both
// worlds.
type fabricNet struct{ f *Fabric }

func (fn fabricNet) Register(topology.ASN, sim.Node) {}

func (fn fabricNet) LinkUp(a, b topology.ASN) bool { return fn.f.linkIsUp(a, b) }

func (fn fabricNet) Send(from, to topology.ASN, payload any) {
	m, ok := payload.(bgp.Msg)
	if !ok {
		return
	}
	// Called from node logic, which always runs under the sending
	// router's mutex — the eps map read is safe. The update is counted
	// before it is queued, so nothing downstream can retire it first.
	r := fn.f.routers[from]
	ep := r.eps[epKey{to, m.Color}]
	fn.f.push()
	if ep == nil || !ep.push(encodeMsg(m)) {
		fn.f.done(1, true)
	}
}

// push counts one UPDATE in flight.
func (f *Fabric) push() { f.account(&f.pushed, 1) }

// done retires n in-flight UPDATEs, as dropped or as processed.
func (f *Fabric) done(n int64, dropped bool) {
	if !dropped {
		f.account(&f.processed, n)
		return
	}
	f.account(&f.dropped, n)
}

// account adds n to one ledger counter. The change that empties the
// in-flight count stamps the quiescence clock.
func (f *Fabric) account(c *int64, n int64) {
	if n == 0 {
		return
	}
	f.flightMu.Lock()
	*c += n
	left := f.pushed - f.processed - f.dropped
	if left == 0 {
		f.quietAt = time.Now()
	}
	f.flightMu.Unlock()
}

// inFlight reports the in-flight count and when it last emptied.
func (f *Fabric) inFlight() (int64, time.Time) {
	f.flightMu.Lock()
	defer f.flightMu.Unlock()
	return f.pushed - f.processed - f.dropped, f.quietAt
}

func (f *Fabric) fail(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

// Err returns the first internal error observed (nil if none).
func (f *Fabric) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

func (f *Fabric) link(a, b topology.ASN) *liveLink {
	f.linksMu.RLock()
	defer f.linksMu.RUnlock()
	return f.links[mkLink(a, b)]
}

func (f *Fabric) linkIsUp(a, b topology.ASN) bool {
	ll := f.link(a, b)
	return ll != nil && !ll.down.Load()
}

// Boot wires every topology link — transport conns, sessions, writers —
// using the boot worker pool, then blocks until all sessions are
// established.
func (f *Fabric) Boot() error {
	links := f.g.Links()
	type job struct{ l topology.Link }
	jobs := make(chan job)
	errs := make(chan error, len(links))
	var wg sync.WaitGroup
	for w := 0; w < f.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				errs <- f.wireLink(j.l.A, j.l.B)
			}
		}()
	}
	for _, l := range links {
		jobs <- job{l}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return f.waitEstablished(f.allEndpoints())
}

// wireLink creates the transport and both colors' sessions for one link.
func (f *Fabric) wireLink(a, b topology.ASN) error {
	conns, err := f.transport.Link()
	if err != nil {
		return fmt.Errorf("emu: wiring %d--%d: %w", a, b, err)
	}
	ll := &liveLink{a: a, b: b, eps: f.startLink(a, b, conns), sever: conns.Sever}
	f.linksMu.Lock()
	f.links[mkLink(a, b)] = ll
	f.linksMu.Unlock()
	return nil
}

// startLink starts one session pair per color over a link's conns and
// returns the endpoints: red a-side, red b-side, blue a-side, blue b-side.
func (f *Fabric) startLink(a, b topology.ASN, conns LinkConns) []*endpoint {
	var eps []*endpoint
	for _, c := range []struct {
		color bgp.Color
		conns [2]net.Conn
	}{{bgp.ColorRed, conns.Red}, {bgp.ColorBlue, conns.Blue}} {
		p := &sessionPair{ends: [2]*endpoint{
			f.mkEndpoint(f.routers[a], b, c.color, c.conns[0]),
			f.mkEndpoint(f.routers[b], a, c.color, c.conns[1]),
		}}
		p.live.Store(4)
		f.wg.Add(4)
		for _, ep := range p.ends {
			go func() { defer f.wg.Done(); defer f.leave(p); _ = ep.sess.Run() }()
			go func() { defer f.wg.Done(); defer f.leave(p); f.runWriter(ep) }()
		}
		eps = append(eps, p.ends[:]...)
	}
	return eps
}

// mkEndpoint builds one session endpoint and registers it with its
// router.
func (f *Fabric) mkEndpoint(r *router, nbr topology.ASN, color bgp.Color, conn net.Conn) *endpoint {
	ep := &endpoint{
		owner: r,
		nbr:   nbr,
		color: color,
		est:   make(chan struct{}),
		sig:   make(chan struct{}, 1),
	}
	ep.sess = netd.NewSession(netd.SessionConfig{
		LocalAS:       uint16(r.as),
		RouterID:      uint32(r.as) + 1,
		Color:         byte(color),
		HoldTime:      holdTime,
		OnEstablished: func(*netd.Session) { close(ep.est) },
		OnUpdate:      func(_ *netd.Session, u *wire.Update) { f.inbound(ep, u) },
	}, conn)
	r.mu.Lock()
	r.eps[epKey{nbr, color}] = ep
	r.mu.Unlock()
	return ep
}

// leave runs as each of a session pair's four goroutines exits. The
// last one out settles the pair: every UPDATE one side wrote that the
// other side's session never delivered was lost in the transport.
func (f *Fabric) leave(p *sessionPair) {
	if p.live.Add(-1) == 0 {
		a, b := p.ends[0], p.ends[1]
		f.done(a.written-b.received+b.written-a.received, true)
	}
}

// runWriter drains one endpoint's outbound queue onto its session. It
// waits for establishment first (the fleet originates only after boot,
// but link restores race with re-establishment), and on session death
// discards whatever remains.
func (f *Fabric) runWriter(ep *endpoint) {
	defer f.discard(ep)
	select {
	case <-ep.est:
	case <-ep.sess.Done():
		return
	}
	for {
		u, ok := ep.pop()
		if !ok {
			return
		}
		if err := ep.sess.SendUpdate(u); err != nil {
			f.done(1, true)
			return
		}
		ep.written++
		f.updatesSent.Add(1)
	}
}

// discard marks an endpoint dead and retires its queued updates as
// dropped. Idempotent.
func (f *Fabric) discard(ep *endpoint) {
	ep.mu.Lock()
	n := len(ep.q)
	ep.q = nil
	ep.dead = true
	ep.mu.Unlock()
	f.done(int64(n), true)
}

// inbound handles one UPDATE from a peer: decode, run the shared
// protocol logic under the router mutex, retire the message processed.
func (f *Fabric) inbound(ep *endpoint, u *wire.Update) {
	ep.received++
	if m, ok := decodeMsg(u, ep.color); ok {
		r := ep.owner
		r.mu.Lock()
		r.node.Recv(ep.nbr, m)
		r.drain()
		r.mu.Unlock()
	}
	f.done(1, false)
}

// allEndpoints snapshots every current endpoint.
func (f *Fabric) allEndpoints() []*endpoint {
	var eps []*endpoint
	f.linksMu.RLock()
	for _, ll := range f.links {
		ll.mu.Lock()
		eps = append(eps, ll.eps...)
		ll.mu.Unlock()
	}
	f.linksMu.RUnlock()
	return eps
}

// waitEstablished blocks until every endpoint's session reaches
// Established.
func (f *Fabric) waitEstablished(eps []*endpoint) error {
	deadline := time.NewTimer(establishTimeout)
	defer deadline.Stop()
	for _, ep := range eps {
		select {
		case <-ep.est:
		case <-ep.sess.Done():
			return fmt.Errorf("emu: %s session AS%d--AS%d died during handshake: %v",
				ep.color, ep.owner.as, ep.nbr, ep.sess.Err())
		case <-deadline.C:
			return fmt.Errorf("emu: %s session AS%d--AS%d not established within %v",
				ep.color, ep.owner.as, ep.nbr, establishTimeout)
		}
	}
	return nil
}

// Originate announces the destination prefix from dest in both colors.
func (f *Fabric) Originate(dest topology.ASN) {
	r := f.routers[dest]
	r.mu.Lock()
	r.node.Originate()
	r.drain()
	r.mu.Unlock()
}

// Withdraw implements scenario.Executor: the origin withdraws its
// prefix from both processes.
func (f *Fabric) Withdraw(dest topology.ASN) error {
	r := f.routers[dest]
	r.mu.Lock()
	r.node.WithdrawOrigin()
	r.drain()
	r.mu.Unlock()
	return nil
}

// FailLink implements scenario.Executor: sever the link's transport
// (dropping in-flight traffic, as TCP session teardown does), then
// deliver the link-down notification to both adjacent routers — the
// wall-clock mirror of sim.Network.FailLink.
func (f *Fabric) FailLink(a, b topology.ASN) error {
	ll := f.link(a, b)
	if ll == nil {
		return fmt.Errorf("emu: no link between %d and %d", a, b)
	}
	ll.mu.Lock()
	if ll.down.Load() {
		ll.mu.Unlock()
		return fmt.Errorf("emu: link %d--%d already down", a, b)
	}
	ll.down.Store(true)
	eps := ll.eps
	sever := ll.sever
	ll.mu.Unlock()
	for _, ep := range eps {
		f.discard(ep)
	}
	sever()
	f.routers[a].linkDown(b)
	f.routers[b].linkDown(a)
	return nil
}

// RestoreLink implements scenario.Executor: new transport conns, fresh
// sessions for both colors, and — once re-established — the link-up
// notification on both sides.
func (f *Fabric) RestoreLink(a, b topology.ASN) error {
	ll := f.link(a, b)
	if ll == nil {
		return fmt.Errorf("emu: no link between %d and %d", a, b)
	}
	if !ll.down.Load() {
		return fmt.Errorf("emu: link %d--%d is not down", a, b)
	}
	conns, err := f.transport.Link()
	if err != nil {
		return fmt.Errorf("emu: rewiring %d--%d: %w", a, b, err)
	}
	eps := f.startLink(a, b, conns)
	ll.mu.Lock()
	ll.eps = eps
	ll.sever = conns.Sever
	ll.mu.Unlock()
	if err := f.waitEstablished(eps); err != nil {
		return err
	}
	ll.down.Store(false)
	f.routers[a].linkUp(b)
	f.routers[b].linkUp(a)
	return nil
}

// FailNode implements scenario.Executor: fail every live link adjacent
// to a, the paper's whole-AS failure.
func (f *Fabric) FailNode(a topology.ASN) error {
	var nbrs []topology.ASN
	nbrs = f.g.Neighbors(nbrs, a)
	for _, b := range nbrs {
		if f.linkIsUp(a, b) {
			if err := f.FailLink(a, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *router) linkDown(nbr topology.ASN) {
	r.mu.Lock()
	r.node.LinkDown(nbr)
	r.drain()
	r.mu.Unlock()
}

func (r *router) linkUp(nbr topology.ASN) {
	r.mu.Lock()
	r.node.LinkUp(nbr)
	r.drain()
	r.mu.Unlock()
}

// RunScript applies a scenario's events at their wall-clock offsets.
func (f *Fabric) RunScript(s scenario.Script) error {
	start := time.Now()
	for _, ev := range s.Sorted() {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		if err := scenario.Apply(f, ev); err != nil {
			return fmt.Errorf("emu: applying %v: %w", ev, err)
		}
	}
	return nil
}

// WaitConverged blocks until the fleet is quiescent: every UPDATE it
// counted has been processed or dropped. The fleet is timer-free and
// every send has a counted cause, so once the count is zero nothing but
// the caller's next event can raise it.
func (f *Fabric) WaitConverged() error {
	deadline := time.Now().Add(f.opts.ConvergeTimeout)
	for {
		if err := f.Err(); err != nil {
			return err
		}
		n, _ := f.inFlight()
		switch {
		case n == 0:
			return nil
		case n < 0:
			return fmt.Errorf("emu: in-flight count %d is negative: an UPDATE was retired twice", n)
		case time.Now().After(deadline):
			return fmt.Errorf("emu: not converged after %v (in-flight %d, queued %d)",
				f.opts.ConvergeTimeout, n, f.queuedUpdates())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// queuedUpdates counts updates sitting in session queues.
func (f *Fabric) queuedUpdates() int {
	n := 0
	for _, ep := range f.allEndpoints() {
		n += ep.queued()
	}
	return n
}

// Stats is a snapshot of fleet-level counters.
type Stats struct {
	ASes     int   `json:"ases"`
	Links    int   `json:"links"`
	Sessions int   `json:"sessions"`
	Updates  int64 `json:"updates_sent"`
	Dropped  int64 `json:"updates_dropped"`
}

// Stats snapshots the fabric counters.
func (f *Fabric) Stats() Stats {
	f.linksMu.RLock()
	links := len(f.links)
	f.linksMu.RUnlock()
	f.flightMu.Lock()
	defer f.flightMu.Unlock()
	return Stats{
		ASes:     f.g.Len(),
		Links:    links,
		Sessions: 2 * links, // one per color, counted per link
		Updates:  f.updatesSent.Load(),
		Dropped:  f.dropped,
	}
}

// Tables dumps every router's red and blue best paths — the live side of
// the sim-vs-live differential check.
func (f *Fabric) Tables() *Tables {
	t := newTables(f.g.Len())
	for a, r := range f.routers {
		r.mu.Lock()
		if p, ok := r.node.Red.BestPath(); ok {
			t.Red[a] = p
		}
		if p, ok := r.node.Blue.BestPath(); ok {
			t.Blue[a] = p
		}
		r.mu.Unlock()
	}
	return t
}

// convergenceSamples returns, in seconds, each AS's time from since to
// its last best-route change, for ASes that changed at all — the
// wall-clock convergence CDF of one phase.
func (f *Fabric) convergenceSamples(since time.Time) []float64 {
	var out []float64
	for _, r := range f.routers {
		r.mu.Lock()
		lc := r.lastChange
		r.mu.Unlock()
		if lc.After(since) {
			out = append(out, lc.Sub(since).Seconds())
		}
	}
	return out
}

// Close severs every link and waits for all session and writer
// goroutines to exit. Idempotent.
func (f *Fabric) Close() {
	f.closeOnce.Do(func() {
		f.linksMu.RLock()
		links := make([]*liveLink, 0, len(f.links))
		for _, ll := range f.links {
			links = append(links, ll)
		}
		f.linksMu.RUnlock()
		for _, ll := range links {
			ll.mu.Lock()
			eps := ll.eps
			sever := ll.sever
			ll.mu.Unlock()
			for _, ep := range eps {
				f.discard(ep)
			}
			sever()
		}
		_ = f.transport.Close()
		f.wg.Wait()
	})
}
