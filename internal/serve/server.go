// Package serve is STAMP's always-on service mode: a long-running
// process that converges an atlas fixpoint over a topology, applies
// scenario events (from a paced replay script or an admin endpoint)
// while they stream in, and serves concurrent reads of the live routing
// state over HTTP — Prometheus /metrics, an SSE /events stream of
// per-event convergence costs, and snapshot-isolated /state JSON reads.
//
// Snapshot isolation is patch-on-converge epochs: each destination shard
// keeps two preallocated route-snapshot buffers and an atomic published
// pointer. Readers acquire the published buffer with a refcount
// (acquire, recheck, release — never a lock); the writer brings the
// spare buffer — which still shows the epoch before the published one —
// up to date by rewriting only the routes the last two events changed,
// and publishes it with one atomic pointer swap. Readers never block
// the writer, the writer never tears a reader's view, and steady-state
// memory is bounded by two epochs per shard (the writer falls back to a
// fresh allocation, and a full copy, only while a slow reader still
// pins the spare).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/obs"
	"stamp/internal/prov"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

// Seed-derivation stream labels, mirroring the atlas replay streams so
// `stamp serve` and `stamp atlas -replay` draw the same workload for
// the same (graph, scenario, seed).
const (
	streamScript int64 = iota + 1
	streamDests
)

// Config parameterizes a Server.
type Config struct {
	// Graph is the converged topology (required).
	Graph *atlas.Graph
	// Params tunes the engine (DefaultParams when zero).
	Params atlas.Params
	// Scenario is the replay workload kind drawn from Seed.
	Scenario scenario.Kind
	// Dests is the number of destination shards (<= 0: DefaultDests).
	Dests int
	// Seed drives the workload draw and the destination sample.
	Seed int64
	// Workers sizes the per-event shard pool (<= 0: one per CPU).
	Workers int
	// Repeat bounds the replay: cycle the script this many times, or
	// <= 0 to cycle forever (service mode). Anything but a single cycle
	// requires a restore-balanced link script (atlas.Repeatable).
	Repeat int
	// Interval paces the replay: the gap between consecutive events
	// (default 20 ms — ~50 events/s, leaving most of each interval for
	// readers on a 10k-AS topology).
	Interval time.Duration
	// Registry receives the server's (and the instrumented engine's)
	// metrics; a fresh registry is created when nil.
	Registry *obs.Registry
	// EventLogSize bounds the SSE ring buffer (default 1024).
	EventLogSize int
	// ProvCap bounds each destination shard's route-provenance journal
	// (entries per shard; default 4096). Older entries are evicted,
	// which truncates /state/{dest}/{as}/why chains but never loses the
	// latest route change per AS within the ring.
	ProvCap int
	// TraceDir, when non-empty, is where flight-recorder dumps are
	// written as flight-<n>.json Chrome trace files (the latest is always
	// also retrievable at GET /debug/flight).
	TraceDir string
	// TraceSample records 1-in-N event/read traces (default 1: every
	// one). The server always runs a tracer — its span rings are the
	// flight recorder's source material.
	TraceSample int
	// ReadSLO, when > 0, is the per-read latency budget; a single read
	// exceeding it triggers a flight-recorder dump.
	ReadSLO time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ on the HTTP
	// surface.
	Pprof bool
	// Logf, when non-nil, receives diagnostic lines.
	Logf func(format string, args ...any)
}

// destSnap is one published epoch of one destination shard: the dense
// route slabs for all three planes plus the reachability summary. refs
// counts readers currently holding the buffer.
type destSnap struct {
	refs    atomic.Int64
	epoch   uint64
	dest    topology.ASN
	destASN int64
	// window is the shard state's window sequence (atlas.State.Windows)
	// the routes below were taken at: what the writer needs to know to
	// patch this buffer forward instead of re-copying it.
	window uint64

	kind [atlas.PlaneCount][]int8
	dist [atlas.PlaneCount][]int32
	next [atlas.PlaneCount][]int32

	reachable        [atlas.PlaneCount]int32
	stampUnreachable int32
}

// shard is one destination's live state plus its two-buffer epoch
// publication slot and its route-provenance journal. provMu orders
// `why` reads against the single writer's engine mutations: the
// journal is written from inside the convergence hot loop, so unlike
// the published snapshots it cannot be read lock-free mid-event.
type shard struct {
	dest topology.ASN
	st   *atlas.State

	pub   atomic.Pointer[destSnap]
	spare *destSnap // writer-owned candidate for the next publish

	provMu sync.Mutex
	j      *prov.Journal
}

// EventRecord is the serve-level outcome of one applied event,
// aggregated over all destination shards — what /events streams and
// /admin/event returns. ASNs are original (snapshot) numbers.
type EventRecord struct {
	Index uint64 `json:"index"`
	Op    string `json:"op"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
	Node  int64  `json:"node,omitempty"`
	// Epoch is the snapshot epoch this event published.
	Epoch uint64 `json:"epoch"`
	// Rounds sums re-convergence rounds over shards; MaxRounds is the
	// worst single shard.
	Rounds    int64 `json:"rounds"`
	MaxRounds int32 `json:"max_rounds"`
	Changed   int64 `json:"changed"`
	BGPLost   int64 `json:"bgp_lost_as_rounds"`
	RedLost   int64 `json:"red_lost_as_rounds"`
	BlueLost  int64 `json:"blue_lost_as_rounds"`
	StampLost int64 `json:"stamp_lost_as_rounds"`
	Reroots   int   `json:"reroots"`
	// ApplyMs is the wall-clock cost of settling and publishing the
	// event across all shards.
	ApplyMs float64 `json:"apply_ms"`
}

// Server is the running service: converged shards, the HTTP surface,
// and the single-writer event pipeline.
type Server struct {
	cfg    Config
	g      *atlas.Graph
	eng    *atlas.Engine
	reg    *obs.Registry
	events *obs.EventLog

	shards  []*shard
	byASN   map[int64]int32 // original ASN → dense id
	destIdx map[int64]int   // original dest ASN → shard index
	script  []scenario.Event

	// applyMu serializes event application (single writer); readers
	// never take it.
	applyMu       sync.Mutex
	epoch         atomic.Uint64
	eventsApplied atomic.Uint64
	started       time.Time

	// Journal totals summed over shards after each applied event, so
	// /healthz reads them without touching the shard locks.
	provAppends   atomic.Uint64
	provEvictions atomic.Uint64
	provEntries   atomic.Int64

	tracer  *trace.Tracer
	flight  *flightRecorder
	steer   *steerFlap
	metrics serverMetrics
	web     webState
}

// serverMetrics is the serve layer's own handle set (the engine and
// pool layers register theirs through the same registry).
type serverMetrics struct {
	pool         *runner.Metrics
	applySeconds *obs.Histogram
	epochGauge   *obs.Gauge
	fallbacks    *obs.Counter

	publishSeconds *obs.Histogram
	publishPatched *obs.Counter
	publishFull    *obs.Counter

	readSeconds *obs.Histogram
	readsTotal  *obs.Counter
	readErrors  *obs.Counter
	inFlight    *obs.Gauge
	sseClients  *obs.Gauge

	whyTotal       *obs.Counter
	whyTruncated   *obs.Counter
	provEntries    *obs.Gauge
	provAppends    *obs.Counter
	provEvictions  *obs.Counter
	eventEvictions *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		pool: runner.NewMetrics(reg),
		applySeconds: reg.Histogram("stamp_serve_apply_seconds",
			"Wall-clock cost of settling and publishing one event across all shards.",
			obs.LatencyBuckets()),
		epochGauge: reg.Gauge("stamp_serve_epoch",
			"Published snapshot epoch (events applied since boot)."),
		fallbacks: reg.Counter("stamp_serve_snapshot_fallbacks_total",
			"Epoch publishes that allocated a fresh buffer because a reader still pinned the spare."),
		publishSeconds: reg.Histogram("stamp_serve_publish_seconds",
			"Wall-clock cost of publishing one settled event's snapshot epoch on every shard.",
			obs.LatencyBuckets()),
		publishPatched: reg.Counter("stamp_serve_publish_patched_total",
			"Shard publishes that patched the spare buffer from the engine's touched sets."),
		publishFull: reg.Counter("stamp_serve_publish_full_total",
			"Shard publishes that copied all three planes: boot, a reader-pinned spare, or a missed, re-rooted or overflowed window."),
		readSeconds: reg.Histogram("stamp_serve_read_seconds",
			"Latency of state/health read requests.", obs.LatencyBuckets()),
		readsTotal: reg.Counter("stamp_serve_reads_total",
			"State/health read requests served."),
		readErrors: reg.Counter("stamp_serve_read_errors_total",
			"Read requests rejected (bad path, unknown AS)."),
		inFlight: reg.Gauge("stamp_serve_http_inflight",
			"HTTP requests currently being served."),
		sseClients: reg.Gauge("stamp_serve_sse_clients",
			"Connected /events stream clients."),
		whyTotal: reg.Counter("stamp_serve_why_total",
			"Provenance chain queries served (GET /state/{dest}/{as}/why)."),
		whyTruncated: reg.Counter("stamp_serve_why_truncated_total",
			"Why queries whose chain was cut short by journal eviction."),
		provEntries: reg.Gauge("stamp_prov_entries",
			"Route-provenance journal entries currently retained, summed over shards."),
		provAppends: reg.Counter("stamp_prov_appends_total",
			"Route changes appended to the provenance journals."),
		provEvictions: reg.Counter("stamp_prov_evictions_total",
			"Provenance entries evicted by ring wrap."),
		eventEvictions: reg.Gauge("stamp_serve_event_log_evictions",
			"Events dropped from the SSE ring buffer."),
	}
}

// New builds the server and converges the initial fixpoint: every
// destination shard's three planes from scratch (in parallel on the
// worker pool), each published as snapshot epoch 0.
func New(cfg Config) (*Server, error) {
	g := cfg.Graph
	if g == nil {
		return nil, fmt.Errorf("serve: nil graph")
	}
	if cfg.Scenario == scenario.PrefixWithdraw {
		return nil, fmt.Errorf("serve: prefix-withdraw is single-origin; destination-sharded serving needs a link or node workload")
	}
	if cfg.Params == (atlas.Params{}) {
		cfg.Params = atlas.DefaultParams()
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	if cfg.EventLogSize <= 0 {
		cfg.EventLogSize = 1024
	}
	if cfg.ProvCap <= 0 {
		cfg.ProvCap = 4096
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}

	multihomed := scenario.Multihomed(g)
	script, err := scenario.PickScript(g, multihomed, cfg.Scenario,
		rand.New(rand.NewSource(runner.DeriveSeed(cfg.Seed, streamScript))))
	if err != nil {
		return nil, err
	}
	events := script.Sorted()
	if cfg.Repeat != 1 {
		if err := atlas.Repeatable(events); err != nil {
			return nil, err
		}
	}
	dests, err := atlas.Destinations(g, cfg.Dests, runner.DeriveSeed(cfg.Seed, streamDests))
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:     cfg,
		g:       g,
		reg:     cfg.Registry,
		events:  obs.NewEventLog(cfg.EventLogSize),
		shards:  make([]*shard, len(dests)),
		byASN:   make(map[int64]int32, g.Len()),
		destIdx: make(map[int64]int, len(dests)),
		script:  events,
		started: time.Now(),
	}
	for a := 0; a < g.Len(); a++ {
		s.byASN[g.OriginalASN(topology.ASN(a))] = int32(a)
	}
	s.metrics = newServerMetrics(cfg.Registry)
	obs.RegisterRuntime(cfg.Registry)
	// The tracer is always on: the serve plane's span volume is a few
	// spans per applied event and one per read, retained in fixed rings,
	// and the flight recorder needs those rings populated when an
	// anomaly hits. TraceSample thins high-rate deployments.
	s.tracer = trace.New(trace.Options{
		Shards:      1 + len(dests),
		SampleEvery: cfg.TraceSample,
	})
	s.flight = newFlightRecorder(s.tracer, cfg.TraceDir, s.events, cfg.Registry,
		s.logf, func() map[string]any {
			return map[string]any{
				"epoch":          s.epoch.Load(),
				"last_event_seq": s.events.LastSeq(),
				"sample_every":   s.tracer.SampleEvery(),
			}
		})
	s.steer = newSteerFlap(s.flight, s.events, cfg.Registry)
	s.eng = atlas.NewEngine(g, cfg.Params)
	s.eng.Instrument(atlas.NewMetrics(cfg.Registry))

	for i, dest := range dests {
		sh := &shard{dest: dest, st: s.eng.NewState(), j: prov.NewJournal(cfg.ProvCap)}
		sh.st.SetJournal(sh.j)
		s.shards[i] = sh
		s.destIdx[g.OriginalASN(dest)] = i
	}
	_, err = runner.Run(runner.Spec[struct{}]{
		Name:   "serve-init",
		Trials: len(s.shards),
		Seed:   cfg.Seed,
		Run: func(t runner.Trial) (struct{}, error) {
			sh := s.shards[t.Index]
			if err := s.eng.InitDest(sh.st, sh.dest); err != nil {
				return struct{}{}, err
			}
			s.publish(sh, 0)
			return struct{}{}, nil
		},
	}, runner.Options{Workers: cfg.Workers, Metrics: s.metrics.pool})
	if err != nil {
		return nil, err
	}
	s.updateProvMetrics()
	s.events.Append("boot",
		fmt.Sprintf("converged %d dests over %d ASes (%d links), scenario %s",
			len(s.shards), g.Len(), g.EdgeCount(), cfg.Scenario), nil)
	s.logf("serve: converged %d destination shards over %d ASes", len(s.shards), g.Len())
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Registry exposes the server's metric registry (for embedding the
// shared mux elsewhere).
func (s *Server) Registry() *obs.Registry { return s.reg }

// EventLog exposes the server's structured event log.
func (s *Server) EventLog() *obs.EventLog { return s.events }

// Epoch returns the currently published snapshot epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// newSnap allocates one snapshot buffer sized for the graph.
func (s *Server) newSnap() *destSnap {
	n := s.g.Len()
	snap := &destSnap{}
	for p := 0; p < atlas.PlaneCount; p++ {
		snap.kind[p] = make([]int8, n)
		snap.dist[p] = make([]int32, n)
		snap.next[p] = make([]int32, n)
	}
	return snap
}

// publish brings a free buffer up to sh.st's converged routes and swaps
// it in as the published epoch. Writer-only. The previous epoch's
// buffer becomes the next spare; if a slow reader still pins the spare,
// a fresh buffer is allocated instead (counted, and the pinned one is
// garbage-collected once its readers release).
//
// The spare was the published buffer two events ago, so in steady state
// it is exactly two engine windows behind and is patched: only the ASes
// in those windows' touched sets are rewritten, and the reachability
// counters move by the before/after difference. Anything else — a fresh
// buffer, a window that ran dense (re-root, overflow), a window this
// buffer missed because an event failed on another shard — is a full
// copy and recount.
func (s *Server) publish(sh *shard, epoch uint64) {
	snap := sh.spare
	if snap != nil {
		// The spare must be reader-free before the writer may overwrite
		// it. Readers hold it only for microseconds (extract-then-
		// release), so a short spin almost always succeeds.
		for i := 0; snap.refs.Load() != 0; i++ {
			if i >= 128 {
				snap = nil
				break
			}
			runtime.Gosched()
		}
	}
	fresh := snap == nil
	if fresh {
		if sh.spare != nil { // only count post-boot fallbacks
			s.metrics.fallbacks.Inc()
		}
		snap = s.newSnap()
	}
	snap.epoch = epoch
	snap.dest = sh.dest
	snap.destASN = s.g.OriginalASN(sh.dest)
	if !fresh && snap.patch(sh.st) {
		s.metrics.publishPatched.Inc()
	} else {
		snap.copyAll(sh.st)
		s.metrics.publishFull.Inc()
	}
	snap.window = sh.st.Windows()
	sh.spare = sh.pub.Swap(snap)
}

// patch rewrites the routes st changed in the windows after snap.window
// and reports whether that brought snap up to date; false means some
// window's touched set is not available and snap needs copyAll (a
// partial patch is harmless: copyAll rewrites everything).
func (snap *destSnap) patch(st *atlas.State) bool {
	for w := snap.window + 1; w <= st.Windows(); w++ {
		for p := 0; p < atlas.PlaneCount; p++ {
			touched, ok := st.Touched(w, p)
			if !ok {
				return false
			}
			for _, a := range touched {
				snap.patchRoute(st, p, a)
			}
		}
	}
	return snap.window <= st.Windows()
}

// patchRoute copies st's current plane-p route at a into snap and moves
// the reachability counters by the difference. Idempotent, so an AS
// touched in both windows being patched is simply written twice.
func (snap *destSnap) patchRoute(st *atlas.State, p int, a int32) {
	red, blue := snap.kind[atlas.PlaneRed], snap.kind[atlas.PlaneBlue]
	wasDark := red[a] == 0 && blue[a] == 0
	k, d, next := st.SnapshotRoute(p, a)
	switch had := snap.kind[p][a] != 0; {
	case k != 0 && !had:
		snap.reachable[p]++
	case k == 0 && had:
		snap.reachable[p]--
	}
	snap.kind[p][a], snap.dist[p][a], snap.next[p][a] = k, d, next
	switch dark := red[a] == 0 && blue[a] == 0; {
	case dark && !wasDark:
		snap.stampUnreachable++
	case wasDark && !dark:
		snap.stampUnreachable--
	}
}

// copyAll copies all three planes out of st and recounts reachability.
func (snap *destSnap) copyAll(st *atlas.State) {
	snap.stampUnreachable = 0
	for p := 0; p < atlas.PlaneCount; p++ {
		st.SnapshotRoutes(p, snap.kind[p], snap.dist[p], snap.next[p])
		reach := int32(0)
		for _, k := range snap.kind[p] {
			if k != 0 {
				reach++
			}
		}
		snap.reachable[p] = reach
	}
	red, blue := snap.kind[atlas.PlaneRed], snap.kind[atlas.PlaneBlue]
	for a := range red {
		if red[a] == 0 && blue[a] == 0 {
			snap.stampUnreachable++
		}
	}
}

// acquire pins the shard's published snapshot for reading. The caller
// MUST call release exactly once, and should extract what it needs and
// release before any serialization work.
func (sh *shard) acquire() *destSnap {
	for {
		b := sh.pub.Load()
		b.refs.Add(1)
		if sh.pub.Load() == b {
			return b
		}
		// The writer republished between our load and our pin: this
		// buffer may be the writer's next spare. Back off and retry.
		b.refs.Add(-1)
	}
}

func (sh *shard) release(b *destSnap) { b.refs.Add(-1) }

// ApplyEvent settles one scenario event across every destination shard
// (in parallel), publishes the new snapshot epoch, and appends the
// aggregated EventRecord to the event log. It is the single-writer
// entry point: the replay loop and the admin endpoint both funnel here.
//
// Settling and publishing are two phases: no shard publishes the new
// epoch until every shard has settled the event, so an error on one
// shard leaves every shard serving the previous epoch. Publishing is
// microseconds per shard (see publish) and runs on the writer's own
// goroutine.
func (s *Server) ApplyEvent(ev scenario.Event) (EventRecord, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	start := time.Now()
	epoch := s.epoch.Load() + 1
	// One applied event is one trace: the ingest root on thread 0, each
	// shard's atlas spans and publish on its own thread track.
	tc := s.tracer.Event(0)
	root := tc.Start("serve.apply_event")
	if root.Live() {
		root.ArgStr("op", ev.Op.String())
		root.Arg("epoch", int64(epoch))
	}
	costs, err := runner.Run(runner.Spec[atlas.EventCost]{
		Name:   "serve-apply",
		Trials: len(s.shards),
		Seed:   s.cfg.Seed,
		Run: func(t runner.Trial) (atlas.EventCost, error) {
			sh := s.shards[t.Index]
			if tc.Live() {
				sh.st.SetTrace(tc.WithTID(int32(1+t.Index)), root.ID())
				defer sh.st.ClearTrace()
			}
			// The engine appends journal entries throughout convergence, so
			// a `why` read must not observe the journal mid-event.
			sh.provMu.Lock()
			cost, err := s.eng.ApplyEvent(sh.st, ev)
			sh.provMu.Unlock()
			if err != nil {
				return atlas.EventCost{}, fmt.Errorf("dest %d: %w", sh.dest, err)
			}
			return cost, nil
		},
	}, runner.Options{Workers: s.cfg.Workers, Metrics: s.metrics.pool})
	if err != nil {
		return EventRecord{}, err
	}
	publishStart := time.Now()
	for i, sh := range s.shards {
		psp := tc.WithTID(int32(1+i)).StartChild(root.ID(), "serve.publish")
		s.publish(sh, epoch)
		psp.End()
	}
	s.metrics.publishSeconds.Observe(time.Since(publishStart).Seconds())
	rec := EventRecord{
		Index: s.eventsApplied.Add(1) - 1,
		Op:    ev.Op.String(),
		Epoch: epoch,
	}
	switch ev.Op {
	case scenario.OpFailLink, scenario.OpRestoreLink:
		rec.A = s.g.OriginalASN(ev.A)
		rec.B = s.g.OriginalASN(ev.B)
	case scenario.OpFailNode, scenario.OpWithdraw:
		rec.Node = s.g.OriginalASN(ev.Node)
	}
	for _, c := range costs {
		rounds := c.Rounds()
		rec.Rounds += int64(rounds)
		if rounds > rec.MaxRounds {
			rec.MaxRounds = rounds
		}
		rec.Changed += c.Changed
		rec.BGPLost += c.BGPLost
		rec.RedLost += c.RedLost
		rec.BlueLost += c.BlueLost
		rec.StampLost += c.StampLost
		if c.Reroot {
			rec.Reroots++
		}
	}
	elapsed := time.Since(start)
	rec.ApplyMs = float64(elapsed.Microseconds()) / 1000
	s.epoch.Store(epoch)
	s.metrics.epochGauge.Set(int64(epoch))
	s.metrics.applySeconds.Observe(elapsed.Seconds())
	s.updateProvMetrics()
	if root.Live() {
		root.Arg("rounds", rec.Rounds)
		root.Arg("changed", rec.Changed)
		root.Arg("reroots", int64(rec.Reroots))
		root.End()
	}
	data, _ := json.Marshal(rec)
	s.events.Append("event-applied",
		fmt.Sprintf("%s (epoch %d, %d max rounds)", rec.Op, epoch, rec.MaxRounds), data)
	if rec.Reroots > 0 {
		s.flight.trigger("reroot",
			fmt.Sprintf("event %s rerooted %d/%d dests at epoch %d", rec.Op, rec.Reroots, len(s.shards), epoch))
	}
	return rec, nil
}

// updateProvMetrics folds the per-shard journal counters into the
// exported gauges/counters and the healthz-readable atomics. Called
// under applyMu (and once at boot before readers exist), so the shard
// journals are quiescent.
func (s *Server) updateProvMetrics() {
	var appends, evicted uint64
	var entries int64
	for _, sh := range s.shards {
		appends += sh.j.Appends()
		evicted += sh.j.Evicted()
		entries += int64(sh.j.Len())
	}
	if d := appends - s.provAppends.Swap(appends); d > 0 {
		s.metrics.provAppends.Add(int64(d))
	}
	if d := evicted - s.provEvictions.Swap(evicted); d > 0 {
		s.metrics.provEvictions.Add(int64(d))
	}
	s.provEntries.Store(entries)
	s.metrics.provEntries.Set(entries)
	s.metrics.eventEvictions.Set(int64(s.events.Evicted()))
}

// applyByASN validates an admin request's original ASNs, translates
// them to dense ids, and applies the event.
func (s *Server) applyByASN(op scenario.Op, a, b, node int64) (EventRecord, error) {
	ev := scenario.Event{Op: op}
	lookup := func(asn int64) (topology.ASN, error) {
		dense, ok := s.byASN[asn]
		if !ok {
			return 0, fmt.Errorf("serve: unknown AS %d", asn)
		}
		return topology.ASN(dense), nil
	}
	var err error
	switch op {
	case scenario.OpFailLink, scenario.OpRestoreLink:
		if ev.A, err = lookup(a); err != nil {
			return EventRecord{}, err
		}
		if ev.B, err = lookup(b); err != nil {
			return EventRecord{}, err
		}
		if s.g.Rel(ev.A, ev.B) == topology.RelNone {
			return EventRecord{}, fmt.Errorf("serve: no link between AS %d and AS %d", a, b)
		}
	case scenario.OpFailNode:
		if ev.Node, err = lookup(node); err != nil {
			return EventRecord{}, err
		}
	default:
		return EventRecord{}, fmt.Errorf("serve: op %v not allowed via admin endpoint", op)
	}
	return s.ApplyEvent(ev)
}

// Run paces the replay script through ApplyEvent until the context is
// done or the configured repeat count is exhausted. With Repeat <= 0 it
// cycles forever — the always-on service mode.
func (s *Server) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for cycle := 0; s.cfg.Repeat <= 0 || cycle < s.cfg.Repeat; cycle++ {
		for i, ev := range s.script {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-ticker.C:
			}
			if _, err := s.ApplyEvent(ev); err != nil {
				return fmt.Errorf("serve: cycle %d event %d: %w", cycle, i, err)
			}
		}
	}
	return nil
}
