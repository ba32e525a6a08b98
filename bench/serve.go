package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/obs"
	"stamp/internal/prov"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/serve"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

// serveSpec sizes one of the two serve workloads.
type serveSpec struct {
	name     string
	n        int           // ASes
	dests    int           // destination shards
	events   int           // events applied in the timed phase
	interval time.Duration // open-loop gap between events; 0 = closed loop, no readers
	readers  int           // closed-loop keep-alive HTTP clients (open loop only)
	setup    setupPlan
	probes   int // verification point reads per shard
}

// Read mix of serve-mixed-10k, in percent: point, summary, why, metrics.
var readMix = [nKinds]int{80, 10, 7, 3}

type readKind int

const (
	kPoint readKind = iota
	kSummary
	kWhy
	kMetrics
	nKinds
)

var kindNames = [nKinds]string{"point", "summary", "why", "metrics"}

// provCap is the served journal capacity (serve's default); the mirror
// pipeline uses the same so its eviction behaviour matches.
const provCap = 4096

func bootServe(tp *topo, sp serveSpec, seed int64, nworkers int) (*serve.Server, error) {
	return serve.New(serve.Config{
		Graph:    tp.csr,
		Scenario: scenario.FlapStorm, // only validated: events come from ApplyEvent, never from the server's own replay
		Dests:    sp.dests,
		Seed:     derive(seed, streamProgram),
		Workers:  nworkers,
		ProvCap:  provCap,
		// Retain every applied event so the log can be checked afterwards.
		EventLogSize: sp.events + 64,
	})
}

// respWriter is a reusable in-memory http.ResponseWriter for driving the
// server's handler without a socket.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

// get serves one GET through h and returns the status; the body is in
// w.body until the next call.
func (w *respWriter) get(h http.Handler, path string) int {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return 0
	}
	h.ServeHTTP(w, req)
	return w.code
}

func readPath(k readKind, dest, as int64) string {
	d := strconv.FormatInt(dest, 10)
	switch k {
	case kPoint:
		return "/state/" + d + "?as=" + strconv.FormatInt(as, 10)
	case kSummary:
		return "/state/" + d
	case kWhy:
		return "/state/" + d + "/" + strconv.FormatInt(as, 10) + "/why"
	}
	return "/metrics"
}

// servedDests asks the server which destinations it serves (it draws
// them from the seed it was given) and maps them to dense ids.
func servedDests(srv *serve.Server, g *atlas.Graph) ([]int64, []topology.ASN, error) {
	var w respWriter
	if code := w.get(srv.Handler(), "/state"); code != http.StatusOK {
		return nil, nil, fmt.Errorf("GET /state: status %d", code)
	}
	var idx serve.StateIndex
	if err := json.Unmarshal(w.body.Bytes(), &idx); err != nil {
		return nil, nil, fmt.Errorf("GET /state: %w", err)
	}
	dense := make([]topology.ASN, len(idx.Dests))
	for i, d := range idx.Dests {
		a, ok := g.DenseASN(d)
		if !ok {
			return nil, nil, fmt.Errorf("served destination AS %d is not in the topology", d)
		}
		dense[i] = a
	}
	return idx.Dests, dense, nil
}

// serveRun is one booted server with the inputs it is driven by.
type serveRun struct {
	sp       serveSpec
	srv      *serve.Server
	g        *atlas.Graph
	destASNs []int64        // served destinations, original numbers
	dense    []topology.ASN // the same, dense ids
	script   []scenario.Event
	seed     int64
}

func newServeRun(sp serveSpec, tp *topo, seed int64, nworkers int) (*serveRun, error) {
	srv, err := bootServe(tp, sp, seed, nworkers)
	if err != nil {
		return nil, err
	}
	destASNs, dense, err := servedDests(srv, tp.csr)
	if err != nil {
		return nil, err
	}
	return &serveRun{sp: sp, srv: srv, g: tp.csr, destASNs: destASNs, dense: dense, seed: seed}, nil
}

// applyFunc applies event i; afterFunc runs after it, off the clock, on
// the writer's goroutine.
type (
	applyFunc func(i int, ev scenario.Event) (serve.EventRecord, error)
	afterFunc func(i int, ev scenario.Event, rec serve.EventRecord) error
)

// writerLog is what the event writer observed, one entry per event.
type writerLog struct {
	apply []time.Duration // ApplyEvent call → return (new epoch published)
	due   []time.Duration // the event's due time → return; equals apply in a closed loop
	late  []time.Duration // due time → call start: how late the generator ran
	recs  []serve.EventRecord
}

// driveWriter applies count events, cycling the script. With interval > 0
// it is an open loop: event i is due at start + i×interval whether or not
// the previous one finished, and its latency is taken from that due time,
// so a stall charges every event it delays.
func driveWriter(script []scenario.Event, count int, interval time.Duration, apply applyFunc, after afterFunc) (*writerLog, error) {
	wl := &writerLog{
		apply: make([]time.Duration, count), due: make([]time.Duration, count),
		late: make([]time.Duration, count), recs: make([]serve.EventRecord, count),
	}
	start := time.Now()
	for i := 0; i < count; i++ {
		ev := script[i%len(script)]
		begin := time.Now()
		dueAt := begin
		if interval > 0 {
			dueAt = start.Add(time.Duration(i) * interval)
			if wait := dueAt.Sub(begin); wait > 0 {
				time.Sleep(wait)
				begin = time.Now()
			}
		}
		rec, err := apply(i, ev)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("event %d (%v): %w", i, ev, err)
		}
		wl.apply[i], wl.due[i], wl.late[i] = dueTimes(dueAt, begin, end)
		wl.recs[i] = rec
		if after != nil {
			if err := after(i, ev, rec); err != nil {
				return nil, fmt.Errorf("after event %d: %w", i, err)
			}
		}
	}
	return wl, nil
}

// dueTimes is the open-loop accounting for one event: service time,
// latency from the due time, and generator lateness (never negative: an
// early generator waits for the due time).
func dueTimes(dueAt, begin, end time.Time) (apply, due, late time.Duration) {
	late = begin.Sub(dueAt)
	if late < 0 {
		late = 0
	}
	return end.Sub(begin), end.Sub(dueAt), late
}

// readerLog is what one closed-loop HTTP client observed.
type readerLog struct {
	lat      [nKinds][]time.Duration // per successful read
	attempts int
	failed   int
	failures []string // the first few, for the report
}

// runReader issues reads back to back on one keep-alive connection until
// stop closes. Subjects are uniform over every AS of the topology and
// every served destination. A read fails on a transport error, a
// non-200 status, or an epoch lower than one this connection already saw
// from the same source: shards publish one after another within an event,
// so snapshot epochs are ordered per destination, and a why response
// carries the server-wide epoch, which is a sequence of its own.
func runReader(base string, dests []int64, g *atlas.Graph, rnd *rand.Rand, stop <-chan struct{}, tr *trace.Tracer) *readerLog {
	rl := &readerLog{}
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 10 * time.Second}
	var body bytes.Buffer
	lastEpoch := make([]uint64, len(dests)+1) // per destination, then the server-wide one
	failf := func(format string, args ...any) {
		rl.failed++
		if len(rl.failures) < 4 {
			rl.failures = append(rl.failures, fmt.Sprintf(format, args...))
		}
	}
	for {
		select {
		case <-stop:
			return rl
		default:
		}
		k, roll := kPoint, rnd.Intn(100)
		for acc := 0; k < nKinds-1; k++ {
			if acc += readMix[k]; roll < acc {
				break
			}
		}
		di := rnd.Intn(len(dests))
		path := readPath(k, dests[di], g.OriginalASN(topology.ASN(rnd.Intn(g.Len()))))
		rl.attempts++
		sp := tr.Event(0).Start("serve.read")
		sp.ArgStr("kind", kindNames[k])
		sp.Arg("op", int64(rl.attempts))
		t0 := time.Now()
		resp, err := client.Get(base + path)
		if err != nil {
			sp.End()
			failf("GET %s: %v", path, err)
			continue
		}
		body.Reset()
		_, err = io.Copy(&body, resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		sp.End()
		if err != nil || resp.StatusCode != http.StatusOK {
			failf("GET %s: status %d, body error %v", path, resp.StatusCode, err)
			continue
		}
		if k != kMetrics {
			last := &lastEpoch[di]
			if k == kWhy {
				last = &lastEpoch[len(dests)]
			}
			epoch, ok := scanEpoch(body.Bytes())
			if !ok || epoch < *last {
				failf("GET %s: epoch %d (present %v) after epoch %d on the same connection", path, epoch, ok, *last)
				continue
			}
			*last = epoch
		}
		rl.lat[k] = append(rl.lat[k], d)
	}
}

// scanEpoch pulls the top-level "epoch" field out of a state response
// without decoding the whole body on the client's hot path.
func scanEpoch(body []byte) (uint64, bool) {
	const key = `"epoch": `
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	var v uint64
	j := i + len(key)
	for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		v = v*10 + uint64(body[j]-'0')
	}
	return v, j > i+len(key)
}

func scrapeHTTP(base string) (*obs.Scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

// servePass is one timed pass over a booted server.
type servePass struct {
	wl      *writerLog
	readers []*readerLog
	wall    time.Duration
}

// pass drives the workload's timed phase: the closed-loop writer alone,
// or the open-loop writer beside the HTTP readers. stopped runs the
// moment the phase ends, before sockets are torn down.
func (sr *serveRun) pass(r *result, rdTracer *trace.Tracer, apply applyFunc, after afterFunc, stopped func()) (*servePass, error) {
	sp := sr.sp
	if apply == nil {
		apply = func(_ int, ev scenario.Event) (serve.EventRecord, error) { return sr.srv.ApplyEvent(ev) }
	}
	if sp.interval == 0 {
		t0 := time.Now()
		wl, err := driveWriter(sr.script, sp.events, 0, apply, after)
		if err != nil {
			return nil, err
		}
		pass := &servePass{wl: wl, wall: time.Since(t0)}
		stopped()
		return pass, nil
	}

	addr, err := sr.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := sr.srv.Shutdown(ctx); err != nil {
			r.fail("shutdown: %v", err)
		}
	}()
	base := "http://" + addr
	first, err := scrapeHTTP(base)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	logs := make([]*readerLog, sp.readers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = runReader(base, sr.destASNs, sr.g, rng(sr.seed, streamReader, int64(i)), stop, rdTracer)
		}()
	}
	wl, err := driveWriter(sr.script, sp.events, sp.interval, apply, after)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	pass := &servePass{wl: wl, readers: logs, wall: time.Since(t0)}
	stopped()
	last, err := scrapeHTTP(base)
	if err != nil {
		return nil, err
	}
	bad := first.NonMonotonic(last)
	r.check(len(bad) == 0, "/metrics counters went backwards between the first and last scrape: %v", bad)
	return pass, nil
}

// readLatencies pools the readers' successful reads — all kinds in ms,
// ascending, and each kind alone in µs — and counts attempts and
// failures into r.
func readLatencies(r *result, logs []*readerLog) (pooledMs []float64, byKindUs [nKinds][]float64) {
	for _, rl := range logs {
		r.ops += rl.attempts
		r.failed += rl.failed
		for _, f := range rl.failures {
			r.failures = append(r.failures, "read: "+f)
		}
		for k := range rl.lat {
			for _, d := range rl.lat[k] {
				pooledMs = append(pooledMs, float64(d)/1e6)
				byKindUs[k] = append(byKindUs[k], float64(d)/1e3)
			}
		}
	}
	sort.Float64s(pooledMs)
	for k := range byKindUs {
		sort.Float64s(byKindUs[k])
	}
	return pooledMs, byKindUs
}

// run is the untraced run of a serve workload.
func (sp serveSpec) run(seed int64) (*result, error) {
	r := newResult(sp.name, false)
	sr, err := repeatSetup(r, sp.setup, func() (*serveRun, error) {
		tp, err := buildTopo(sp.n, seed)
		if err != nil {
			return nil, err
		}
		return newServeRun(sp, tp, seed, workers)
	})
	if err != nil {
		return nil, err
	}
	if sr.script, err = stormEvents(sr.g, seed); err != nil {
		return nil, err
	}
	sr.sp.events = midStorm(sp.events, len(sr.script))

	// The open loop's length is set by its schedule, and its readers keep
	// both cores busy for all of it, whatever the host's speed: its wall and
	// CPU time are reported as measured.
	ph := startPhase(sp.interval == 0)
	pass, err := sr.pass(r, nil, nil, nil, func() { ph.stop(r) })
	if err != nil {
		return nil, err
	}
	r.ops += sr.sp.events
	applies := sortedMs(pass.wl.apply)
	calls := applies
	if sp.interval > 0 {
		calls, _ = readLatencies(r, pass.readers)
	}
	r.setCalls(len(calls), pass.wall, calls)
	fmt.Printf("# %s: raw: %d events, apply p50 %.3f ms p90 %.3f ms p99 %.3f ms\n",
		sp.name, len(applies), percentile(applies, 50), percentile(applies, 90), percentile(applies, 99))
	if sp.interval > 0 {
		due, late := sortedMs(pass.wl.due), sortedMs(pass.wl.late)
		fmt.Printf("# %s: raw: apply from due time p50 %.3f ms p90 %.3f ms, writer lateness p90 %.3f ms\n",
			sp.name, percentile(due, 50), percentile(due, 90), percentile(late, 90))
		fmt.Printf("# %s: raw: read p50 %.4f p90 %.4f p99 %.4f p99.9 %.4f ms\n",
			sp.name, percentile(calls, 50), percentile(calls, 90), percentile(calls, 99), percentile(calls, 99.9))
	}
	sr.verify(r, pass.wl, nil)
	return r, nil
}

// verify checks what the server now serves against an independent
// from-scratch convergence of the same topology with the stream's net
// damage applied, and the server's own records against the stream. With a
// mirror it also checks the mirror against the same reference.
func (sr *serveRun) verify(r *result, wl *writerLog, m *mirror) {
	g, n := sr.g, len(wl.recs)
	r.check(sr.srv.Epoch() == uint64(n), "final epoch %d after %d events", sr.srv.Epoch(), n)

	applied := make([]scenario.Event, n)
	for i := range applied {
		applied[i] = sr.script[i%len(sr.script)]
	}
	var logged []serve.EventRecord
	for _, ev := range sr.srv.EventLog().Since(0) {
		if ev.Kind != "event-applied" {
			continue
		}
		var rec serve.EventRecord
		if err := json.Unmarshal(ev.Data, &rec); err != nil {
			r.fail("event log seq %d: %v", ev.Seq, err)
			continue
		}
		logged = append(logged, rec)
	}
	inOrder := len(logged) == n
	for i := 0; inOrder && i < n; i++ {
		inOrder = logged[i].Index == uint64(i) && logged[i].Epoch == uint64(i+1) &&
			logged[i].Op == applied[i].Op.String() && wl.recs[i].Index == uint64(i)
	}
	r.check(inOrder, "event log holds %d event-applied records for %d events, or they are out of order", len(logged), n)

	damage := netDamage(applied)
	r.check(len(damage) > 0, "the stream ends with no link down: the final route check would be vacuous")
	eng := atlas.NewEngine(g, atlas.DefaultParams())
	ref := eng.NewState()
	routes := newPlaneBufs(g.Len())
	kind, dist, next := routes.kind, routes.dist, routes.next
	h := sr.srv.Handler()
	var w respWriter
	rnd := rng(sr.seed, streamProbe)
	for si, d := range sr.dense {
		destASN := sr.destASNs[si]
		if err := eng.ConvergeScratch(ref, d, damage); err != nil {
			r.fail("scratch convergence of dest %d: %v", destASN, err)
			continue
		}
		if m != nil {
			diffs := atlas.DiffStates(m.st[si], ref)
			r.check(len(diffs) == 0, "dest %d: mirror differs from scratch at %d routes", destASN, len(diffs))
		}
		want := serve.StateSummary{Dest: destASN, Epoch: uint64(n), ASes: g.Len(), Reachable: map[string]int32{}}
		routes.snapshot(ref)
		for p := range kind {
			reach := int32(0)
			for _, k := range kind[p] {
				if k != 0 {
					reach++
				}
			}
			want.Reachable[atlas.PlaneName(p)] = reach
		}
		for a := 0; a < g.Len(); a++ {
			if kind[atlas.PlaneRed][a] == 0 && kind[atlas.PlaneBlue][a] == 0 {
				want.StampUnreachable++
			}
		}
		var sum serve.StateSummary
		code := w.get(h, readPath(kSummary, destASN, 0))
		err := json.Unmarshal(w.body.Bytes(), &sum)
		r.check(code == http.StatusOK && err == nil && fmt.Sprint(sum) == fmt.Sprint(want),
			"dest %d summary: status %d err %v got %+v want %+v", destASN, code, err, sum, want)

		for k := 0; k < sr.sp.probes; k++ {
			a := rnd.Intn(g.Len())
			wantRead := serve.StateRead{Dest: destASN, AS: g.OriginalASN(topology.ASN(a)), Epoch: uint64(n)}
			for p := range kind {
				pr := serve.PlaneRoute{Plane: atlas.PlaneName(p), Kind: atlas.KindName(kind[p][a]), Dist: dist[p][a]}
				if nx := next[p][a]; nx >= 0 {
					pr.Next = g.OriginalASN(topology.ASN(nx))
				}
				wantRead.Planes = append(wantRead.Planes, pr)
			}
			var got serve.StateRead
			code := w.get(h, readPath(kPoint, destASN, wantRead.AS))
			err := json.Unmarshal(w.body.Bytes(), &got)
			r.check(code == http.StatusOK && err == nil && fmt.Sprint(got) == fmt.Sprint(wantRead),
				"point read dest %d as %d: status %d err %v got %+v want %+v", destASN, wantRead.AS, code, err, got, wantRead)
		}
	}
}

// mirror is the bench's own copy of the serve pipeline: an engine, one
// state and journal per served destination, a snapshot buffer and an
// event log, fed the same events so that every stage is a public call the
// bench can put a span around.
type mirror struct {
	eng    *atlas.Engine
	st     []*atlas.State
	j      []*prov.Journal
	routes *planeBufs
	log    *obs.EventLog

	changed, rounds int64  // summed EventCosts, checked against the server's records
	mallocs         uint64 // heap objects allocated inside Engine.ApplyEvent
	shardEvents     int
	bootAppends     uint64 // journal appends made by initial convergence
}

func newMirror(g *atlas.Graph, dense []topology.ASN, logSize int, tr *trace.Tracer) (*mirror, error) {
	m := &mirror{eng: atlas.NewEngine(g, atlas.DefaultParams()), routes: newPlaneBufs(g.Len()), log: obs.NewEventLog(logSize)}
	// The served engine is instrumented; give the mirror the same hooks so
	// its per-event cost includes them.
	m.eng.Instrument(atlas.NewMetrics(obs.NewRegistry()))
	tc := tr.Event(0)
	root := tc.Start("bench.mirror_init")
	root.Arg("op", -1) // before the first event
	defer root.End()
	for i, d := range dense {
		st, j := m.eng.NewState(), prov.NewJournal(provCap)
		st.SetJournal(j)
		var err error
		timed(tc, root.ID(), "atlas.init_dest", i, func() { err = m.eng.InitDest(st, d) })
		if err != nil {
			return nil, err
		}
		m.st, m.j = append(m.st, st), append(m.j, j)
		m.bootAppends += j.Appends()
	}
	return m, nil
}

// step replays one applied event through the mirror, one span per stage.
// countAllocs brackets the engine calls with runtime.ReadMemStats, which
// is only exact while no other goroutine allocates.
func (m *mirror) step(tc trace.Ctx, root trace.SpanID, i int, ev scenario.Event, rec serve.EventRecord, countAllocs bool) error {
	var ms runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&ms)
	}
	before := ms.Mallocs
	for _, st := range m.st {
		var cost atlas.EventCost
		var err error
		timed(tc, root, "atlas.apply_event", i, func() { cost, err = m.eng.ApplyEvent(st, ev) })
		if err != nil {
			return err
		}
		m.changed += cost.Changed
		m.rounds += int64(cost.Rounds())
		m.shardEvents++
	}
	if countAllocs {
		runtime.ReadMemStats(&ms)
		m.mallocs += ms.Mallocs - before
	}
	for _, st := range m.st {
		timed(tc, root, "atlas.snapshot_routes", i, func() { m.routes.snapshot(st) })
	}
	var err error
	timed(tc, root, "runner.fanout", i, func() {
		_, err = runner.Run(runner.Spec[struct{}]{
			Name: "bench-fanout", Trials: len(m.st),
			Run: func(runner.Trial) (struct{}, error) { return struct{}{}, nil },
		}, runner.Options{Workers: 1})
	})
	if err != nil {
		return err
	}
	timed(tc, root, "obs.event_append", i, func() {
		data, _ := json.Marshal(rec) // plain numbers and strings: cannot fail
		m.log.Append("event-applied", fmt.Sprintf("%s (epoch %d, %d max rounds)", rec.Op, rec.Epoch, rec.MaxRounds), data)
	})
	return nil
}

// trace is the traced run of a serve workload: one worker, a third
// of the events, the mirror pipeline beside the server, and direct probes
// of the read path's layers.
func (sp serveSpec) trace(seed int64, outDir string) (*result, error) {
	r := newResult(sp.name, true)
	tp, err := buildTopo(sp.n, seed)
	if err != nil {
		return nil, err
	}
	tp.setLayers(r)
	script, err := stormEvents(tp.csr, seed)
	if err != nil {
		return nil, err
	}
	sp.events = midStorm(max(sp.events/3, 8), len(script))

	// Untraced reference pass at the same size and worker count: what the
	// traced pass's wall time is compared with.
	sr, err := newServeRun(sp, tp, seed, 1)
	if err != nil {
		return nil, err
	}
	sr.script = script
	ref, err := sr.pass(r, nil, nil, nil, func() {})
	if err != nil {
		return nil, err
	}

	evTracer := newRecorder(sp.events*(4+2*sp.dests)+64, 1)
	rdTracer := newRecorder(1<<15, 64) // one read in 64 gets a span
	t0 := time.Now()
	if sr, err = newServeRun(sp, tp, seed, 1); err != nil {
		return nil, err
	}
	sr.script = script
	r.set("serve.boot_s", time.Since(t0).Seconds(), 1)
	m, err := newMirror(tp.csr, sr.dense, sp.events+64, evTracer)
	if err != nil {
		return nil, err
	}
	// One root span per event; the server call and every mirror stage are
	// its children and share its trace id.
	var tc trace.Ctx
	var root trace.Span
	apply := func(i int, ev scenario.Event) (rec serve.EventRecord, err error) {
		tc = evTracer.Event(0)
		root = tc.Start("bench.event")
		root.Arg("op", int64(i))
		timed(tc, root.ID(), "serve.apply_event", i, func() { rec, err = sr.srv.ApplyEvent(ev) })
		return rec, err
	}
	after := func(i int, ev scenario.Event, rec serve.EventRecord) error {
		defer root.End()
		return m.step(tc, root.ID(), i, ev, rec, sp.interval == 0)
	}
	traced, err := sr.pass(r, rdTracer, apply, after, func() {})
	if err != nil {
		return nil, err
	}
	r.ops += 2 * sp.events
	if sp.interval > 0 {
		readLatencies(r, ref.readers)
	}

	spans := collect(evTracer, rdTracer)
	sr.layerMetrics(r, m, spans, traced, ref)
	r.set("trace.spans_dropped", float64(evTracer.Dropped()+rdTracer.Dropped()), 1)
	if err := setPeakRSS(r); err != nil {
		return nil, err
	}
	sr.verify(r, traced.wl, m)
	return r, spans.writeChrome(outDir, sp.name, map[string]any{"workload": sp.name, "seed": seed, "events": sp.events})
}

// layerMetrics turns the traced pass's spans, the writer and reader logs
// and a set of direct probes into the serve rows of the layer table.
func (sr *serveRun) layerMetrics(r *result, m *mirror, spans *spanSet, traced, ref *servePass) {
	sp, g := sr.sp, sr.g
	p := r.setPct

	p("atlas.init_dest_ms", spans.us("atlas.init_dest"), 50, 1e-3)
	engine, snap := spans.us("atlas.apply_event"), spans.us("atlas.snapshot_routes")
	fan, app := spans.us("runner.fanout"), spans.us("obs.event_append")
	call := spans.us("serve.apply_event")
	p("atlas.apply_event_us", engine, 50, 1)
	p("atlas.apply_event_p99_us", engine, 99, 1)
	p("atlas.snapshot_routes_us", snap, 50, 1)
	p("runner.fanout_us", fan, 50, 1)
	p("obs.event_append_us", app, 50, 1)
	p("serve.apply_p50_ms", call, 50, 1e-3)
	p("serve.apply_p90_ms", call, supportedTail(len(call), 90), 1e-3)

	// What Server.ApplyEvent spends outside the stages the mirror prices:
	// the reachability recount, the spare-buffer spin, its own spans.
	callBy := spans.perTrace("serve.apply_event")
	rest := []map[uint64]float64{spans.perTrace("atlas.apply_event"), spans.perTrace("atlas.snapshot_routes"),
		spans.perTrace("runner.fanout"), spans.perTrace("obs.event_append")}
	var self []float64
	for id, us := range callBy {
		for _, part := range rest {
			us -= part[id]
		}
		self = append(self, us)
	}
	sort.Float64s(self)
	p("serve.apply_self_us", self, 50, 1)
	p("trace.root_self_us", spans.selfUs("bench.event"), 50, 1)
	nd := float64(len(sr.dense))
	rows := nd*percentile(engine, 50) + nd*percentile(snap, 50) + percentile(fan, 50) + percentile(app, 50) + percentile(self, 50)
	r.set("serve.layer_residual_ratio", (rows-percentile(call, 50))/percentile(call, 50), len(call))

	var busy time.Duration
	for _, d := range traced.wl.apply {
		busy += d
	}
	r.set("serve.apply_busy_ratio", busy.Seconds()/traced.wall.Seconds(), len(traced.wl.apply))
	p("serve.apply_due_p50_ms", sortedMs(traced.wl.due), 50, 1)
	p("serve.apply_due_p90_ms", sortedMs(traced.wl.due), 90, 1)
	p("serve.writer_late_p90_ms", sortedMs(traced.wl.late), 90, 1)
	r.set("trace.overhead_ratio", traced.wall.Seconds()/ref.wall.Seconds(), 1)

	// Exact counts, from the server's own records.
	var changed, rounds, reroots int64
	for _, rec := range traced.wl.recs {
		changed += rec.Changed
		rounds += rec.Rounds
		reroots += int64(rec.Reroots)
	}
	ne := float64(len(traced.wl.recs))
	r.set("atlas.changed_per_event", float64(changed)/ne, len(traced.wl.recs))
	r.set("atlas.rounds_per_event", float64(rounds)/ne, len(traced.wl.recs))
	r.set("atlas.reroots", float64(reroots), len(traced.wl.recs))
	r.set("atlas.useful_ratio", float64(changed)/(ne*nd*atlas.PlaneCount*float64(g.Len())), m.shardEvents)
	r.check(m.changed == changed && m.rounds == rounds,
		"mirror settled %d changes in %d rounds, the server recorded %d in %d", m.changed, m.rounds, changed, rounds)
	if sp.interval == 0 {
		r.set("atlas.allocs_per_event", float64(m.mallocs)/float64(m.shardEvents), m.shardEvents)
	}
	var appends, evicted uint64
	for _, j := range m.j {
		appends += j.Appends()
		evicted += j.Evicted()
	}
	r.set("prov.appends_per_event", float64(appends-m.bootAppends)/ne, len(traced.wl.recs))
	r.set("prov.evictions", float64(evicted), 1)
	r.set("serve.epoch_end", float64(sr.srv.Epoch()), 1)

	// Direct probes: the handler without a socket, the registry scrape,
	// the provenance chain walk.
	h := sr.srv.Handler()
	var w respWriter
	rnd := rng(sr.seed, streamProbe, 1)
	probe := func(k readKind, count int) []float64 {
		out := make([]float64, 0, count)
		for i := 0; i < count; i++ {
			path := readPath(k, sr.destASNs[rnd.Intn(len(sr.destASNs))], g.OriginalASN(topology.ASN(rnd.Intn(g.Len()))))
			t0 := time.Now()
			code := w.get(h, path)
			out = append(out, float64(time.Since(t0))/1e3)
			r.check(code == http.StatusOK, "probe GET %s: status %d", path, code)
		}
		sort.Float64s(out)
		return out
	}
	point := probe(kPoint, 2000)
	p("serve.handler_point_us", point, 50, 1)
	p("serve.handler_summary_us", probe(kSummary, 500), 50, 1)
	p("serve.handler_why_us", probe(kWhy, 500), 50, 1)
	p("obs.scrape_us", probe(kMetrics, 50), 50, 1)
	r.set("obs.scrape_bytes", float64(w.body.Len()), 1)
	if sc, err := obs.ParseText(bytes.NewReader(w.body.Bytes())); err != nil {
		r.fail("parse /metrics: %v", err)
	} else {
		fb, _ := sc.Value("stamp_serve_snapshot_fallbacks_total")
		re, _ := sc.Value("stamp_serve_read_errors_total")
		r.set("serve.snapshot_fallbacks", fb, 1)
		r.set("serve.read_errors", re, 1)
	}
	chain := make([]float64, 0, 500)
	for i := 0; i < cap(chain); i++ {
		si, a := rnd.Intn(len(m.j)), topology.ASN(rnd.Intn(g.Len()))
		t0 := time.Now()
		rep := atlas.BuildWhy(g, m.j[si], sr.dense[si], a)
		chain = append(chain, float64(time.Since(t0))/1e3)
		r.check(len(rep.Chains) == atlas.PlaneCount, "why chain for dest %d has %d planes", sr.destASNs[si], len(rep.Chains))
	}
	sort.Float64s(chain)
	p("prov.chain_us", chain, 50, 1)

	if sp.interval > 0 {
		pooled, byKind := readLatencies(r, traced.readers)
		p("serve.read_p50_us", pooled, 50, 1e3)
		p("serve.read_p99_us", pooled, supportedTail(len(pooled), 99), 1e3)
		for k, name := range [nKinds]string{"serve.read_point_p50_us", "serve.read_summary_p50_us", "serve.read_why_p50_us", "serve.read_metrics_p50_us"} {
			p(name, byKind[k], 50, 1)
		}
		r.set("serve.http_overhead_us", percentile(byKind[kPoint], 50)-percentile(point, 50), len(byKind[kPoint]))
	}
}
