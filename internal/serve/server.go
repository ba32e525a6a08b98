// Package serve is STAMP's always-on service mode: a long-running
// process that converges an atlas fixpoint over a topology, applies
// scenario events (from a paced replay script or an admin endpoint)
// while they stream in, and serves concurrent reads of the live routing
// state over HTTP — Prometheus /metrics, an SSE /events stream of
// per-event convergence costs, and snapshot-isolated /state JSON reads.
//
// Snapshot isolation is one buffer per destination shard, one packed
// word per (plane, AS), behind a seqlock: a counter that is odd while
// the writer patches the words the last event touched and stores the
// new epoch. A reader loads an even counter, then the epoch and the
// words it needs, and retries if the counter moved meanwhile. Readers
// never block the writer, and the writer never waits for a reader.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// Config parameterizes a Server.
type Config struct {
	// Graph is the converged topology (required).
	Graph *atlas.Graph
	// Params tunes the engine (DefaultParams when zero).
	Params atlas.Params
	// Scenario is the replay workload kind drawn from Seed
	// (atlas.DrawWorkload: `stamp atlas -replay` draws the same one).
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
	// (entries per shard; default 4096). The journal records the route
	// changes of applied events, not boot's convergence. Older entries
	// are evicted; a /state/{dest}/{as}/why chain still reaches the
	// origin, rendering each hop with no retained entry from the
	// shard's current routes as a held hop.
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

// destSnap is one destination shard's published routes, a packed word
// per (plane, AS), and reachability summary, behind the seqlock seq:
// the writer (publish) holds seq odd while it changes anything here,
// and a reader (stable) keeps only what it loaded between two equal
// even values of seq, counting in retries the reads that tried again.
type destSnap struct {
	seq     atomic.Uint64
	retries *obs.Counter
	epoch   atomic.Uint64
	// window is the shard state's window sequence (atlas.State.Windows)
	// the words were taken at: what the writer needs to know to patch
	// the buffer forward instead of re-copying it. Writer-only.
	window           uint64
	routes           [atlas.PlaneCount][]atomic.Uint64
	reachable        [atlas.PlaneCount]atomic.Int32
	stampUnreachable atomic.Int32
}

// packRoute packs a route in State.SnapshotRoute form into one word:
// kind<<62 | dist<<32 | uint32(next+2). atlas keeps N, and so dist,
// below 2^28, and next+2 >= 0 (-2 is the origin, -1 none).
func packRoute(kind int8, dist, next int32) uint64 {
	return uint64(kind)<<62 | uint64(dist)<<32 | uint64(uint32(next+2))
}

// unpackRoute inverts packRoute.
func unpackRoute(w uint64) (kind int8, dist, next int32) {
	return int8(w >> 62), int32(w >> 32 & (1<<30 - 1)), int32(uint32(w)) - 2
}

// routed reports whether a packed word holds a route.
func routed(w uint64) bool { return w>>62 != 0 }

// shard is one destination's live state plus its published snapshot
// and its route-provenance journal. provMu orders `why` reads against
// the single writer's engine mutations: a why read walks the state's
// current routes and the journal, both written from inside the
// convergence hot loop, so unlike the published snapshot they cannot
// be read lock-free mid-event.
type shard struct {
	dest topology.ASN
	st   *atlas.State
	snap destSnap

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
	// EventTotals sums the event's cost over shards.
	atlas.EventTotals
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
	destIdx map[int64]int // original dest ASN → shard index
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

	publishSeconds *obs.Histogram
	publishPatched *obs.Counter
	publishFull    *obs.Counter

	readSeconds *obs.Histogram
	readsTotal  *obs.Counter
	readErrors  *obs.Counter
	readRetries *obs.Counter
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
		publishSeconds: reg.Histogram("stamp_serve_publish_seconds",
			"Wall-clock cost of publishing one settled event's snapshot epoch on every shard.",
			obs.LatencyBuckets()),
		publishPatched: reg.Counter("stamp_serve_publish_patched_total",
			"Shard publishes that patched the snapshot buffer from the engine's touched sets."),
		publishFull: reg.Counter("stamp_serve_publish_full_total",
			"Shard publishes that copied all three planes: boot, or a missed, re-rooted or overflowed window."),
		readSeconds: reg.Histogram("stamp_serve_read_seconds",
			"Latency of state/health read requests.", obs.LatencyBuckets()),
		readsTotal: reg.Counter("stamp_serve_reads_total",
			"State/health read requests served."),
		readErrors: reg.Counter("stamp_serve_read_errors_total",
			"Read requests rejected (bad path, unknown AS)."),
		readRetries: reg.Counter("stamp_serve_read_retries_total",
			"Snapshot reads that met the writer mid-publish and retried."),
		inFlight: reg.Gauge("stamp_serve_http_inflight",
			"HTTP requests currently being served."),
		sseClients: reg.Gauge("stamp_serve_sse_clients",
			"Connected /events stream clients."),
		whyTotal: reg.Counter("stamp_serve_why_total",
			"Provenance chain queries served (GET /state/{dest}/{as}/why)."),
		whyTruncated: reg.Counter("stamp_serve_why_truncated_total",
			"Why queries with a chain that stopped short of the origin. Chains are completed from the shard's current routes, so this stays 0."),
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
// worker pool), each published as snapshot epoch 0. A shard attaches
// its journal after it converges, before it publishes: a from-scratch
// convergence records nothing, the journal records applied events from
// event 1 on, and a why read renders a route boot left in place as a
// held hop.
func New(cfg Config) (*Server, error) {
	g := cfg.Graph
	script, dests, err := atlas.DrawWorkload(g, cfg.Scenario, cfg.Dests, cfg.Seed)
	if err != nil {
		return nil, err
	}
	events := script.Sorted()
	if cfg.Repeat != 1 {
		if err := atlas.Repeatable(events); err != nil {
			return nil, err
		}
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

	s := &Server{
		cfg:     cfg,
		g:       g,
		reg:     cfg.Registry,
		events:  obs.NewEventLog(cfg.EventLogSize),
		shards:  make([]*shard, len(dests)),
		destIdx: make(map[int64]int, len(dests)),
		script:  events,
		started: time.Now(),
	}
	s.metrics = newServerMetrics(cfg.Registry)
	obs.RegisterRuntime(cfg.Registry)
	// The tracer is always on: the serve plane's span volume is a few
	// spans per applied event and one per read, retained in a fixed
	// ring, and the flight recorder needs that ring populated when an
	// anomaly hits. TraceSample thins high-rate deployments. Every span
	// is recorded under a context from Event(0) (WithTID moves a shard's
	// spans to its own thread track, not to another ring), so the tracer
	// keeps that one ring.
	s.tracer = trace.New(trace.Options{
		Shards:      1,
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
		sh.snap.retries = s.metrics.readRetries
		for p := range sh.snap.routes {
			sh.snap.routes[p] = make([]atomic.Uint64, g.Len())
		}
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
			sh.st.SetJournal(sh.j)
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

// EventLog exposes the server's structured event log.
func (s *Server) EventLog() *obs.EventLog { return s.events }

// Epoch returns the currently published snapshot epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// publish brings sh's snapshot up to sh.st's converged routes and
// stamps it with epoch. Writer-only: ApplyEvent calls it under applyMu,
// and boot before any reader can reach the shard. In steady state the
// buffer is one engine window behind and is patched: only that window's
// touched ASes are rewritten, and the reachability counters move by the
// difference. Anything else — boot, a window that ran dense (re-root,
// overflow), or one State.Touched no longer retains — is a full copy.
func (s *Server) publish(sh *shard, epoch uint64) {
	snap := &sh.snap
	snap.seq.Add(1) // odd: readers retry until the buffer is whole
	if snap.patch(sh.st) {
		s.metrics.publishPatched.Inc()
	} else {
		snap.copyAll(sh.st)
		s.metrics.publishFull.Inc()
	}
	snap.window = sh.st.Windows()
	snap.epoch.Store(epoch)
	snap.seq.Add(1)
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
	red, blue := &snap.routes[atlas.PlaneRed][a], &snap.routes[atlas.PlaneBlue][a]
	wasDark := !routed(red.Load()) && !routed(blue.Load())
	w := packRoute(st.SnapshotRoute(p, a))
	switch had, has := routed(snap.routes[p][a].Load()), routed(w); {
	case has && !had:
		snap.reachable[p].Add(1)
	case had && !has:
		snap.reachable[p].Add(-1)
	}
	snap.routes[p][a].Store(w)
	switch dark := !routed(red.Load()) && !routed(blue.Load()); {
	case dark && !wasDark:
		snap.stampUnreachable.Add(1)
	case wasDark && !dark:
		snap.stampUnreachable.Add(-1)
	}
}

// copyAll copies all three planes out of st and recounts reachability.
func (snap *destSnap) copyAll(st *atlas.State) {
	var reach [atlas.PlaneCount]int32
	dark := int32(0)
	for a := range snap.routes[0] {
		var w [atlas.PlaneCount]uint64
		for p := range w {
			w[p] = packRoute(st.SnapshotRoute(p, int32(a)))
			snap.routes[p][a].Store(w[p])
			if routed(w[p]) {
				reach[p]++
			}
		}
		if !routed(w[atlas.PlaneRed]) && !routed(w[atlas.PlaneBlue]) {
			dark++
		}
	}
	for p := range reach {
		snap.reachable[p].Store(reach[p])
	}
	snap.stampUnreachable.Store(dark)
}

// stable runs load until one run falls wholly between two publishes:
// seq even before it and unchanged after.
func (snap *destSnap) stable(load func()) {
	for retried := false; ; retried = true {
		if seq := snap.seq.Load(); seq&1 == 0 {
			load()
			if snap.seq.Load() == seq {
				return
			}
		}
		if !retried {
			snap.retries.Inc()
		}
		runtime.Gosched()
	}
}

// read returns the published epoch and AS a's packed route on every
// plane, all from the same publish.
func (snap *destSnap) read(a int32) (epoch uint64, routes [atlas.PlaneCount]uint64) {
	snap.stable(func() {
		epoch = snap.epoch.Load()
		for p := range routes {
			routes[p] = snap.routes[p][a].Load()
		}
	})
	return epoch, routes
}

// summary returns the published epoch and reachability counters, all
// from the same publish.
func (snap *destSnap) summary() (epoch uint64, reachable [atlas.PlaneCount]int32, stampUnreachable int32) {
	snap.stable(func() {
		epoch = snap.epoch.Load()
		for p := range reachable {
			reachable[p] = snap.reachable[p].Load()
		}
		stampUnreachable = snap.stampUnreachable.Load()
	})
	return epoch, reachable, stampUnreachable
}

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
		rec.Add(c)
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
		dense, ok := s.g.DenseASN(asn)
		if !ok {
			return 0, fmt.Errorf("serve: unknown AS %d", asn)
		}
		return dense, nil
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

// refusal returns the atlas refusal inside err (atlas.ErrRefused)
// without the runner's and the shard's prefixes, or nil when err is not
// a refusal.
func refusal(err error) error {
	if !errors.Is(err, atlas.ErrRefused) {
		return nil
	}
	for u := errors.Unwrap(err); u != nil && errors.Is(u, atlas.ErrRefused); u = errors.Unwrap(u) {
		err = u
	}
	return err
}

// replay applies the replay script's next event. An admin request may
// already have failed or restored what the event names; atlas then
// refuses it with every shard unchanged, so replay records a
// replay-skipped event and the replay goes on. Any other error ends it.
func (s *Server) replay(ev scenario.Event) error {
	_, err := s.ApplyEvent(ev)
	if r := refusal(err); r != nil {
		s.events.Append("replay-skipped", fmt.Sprintf("%s: %v", ev.Op, r), nil)
		return nil
	}
	return err
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
			if err := s.replay(ev); err != nil {
				return fmt.Errorf("serve: cycle %d event %d: %w", cycle, i, err)
			}
		}
	}
	return nil
}
