package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/obs"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

// MuxConfig assembles the shared observability surface — /metrics,
// /healthz, and (when an event log is supplied) the /events SSE stream.
// The serve server mounts it under its state endpoints; the daemon's
// -metrics listener reuses it standalone.
type MuxConfig struct {
	// Registry backs /metrics (required).
	Registry *obs.Registry
	// Events backs /events; nil omits the endpoint.
	Events *obs.EventLog
	// Health produces the /healthz JSON payload; nil serves {"status":"ok"}.
	Health func() any
	// Closing, when non-nil, terminates open SSE streams on shutdown so
	// http.Server.Shutdown can drain.
	Closing <-chan struct{}
	// SSEClients, when non-nil, tracks connected /events streams.
	SSEClients *obs.Gauge
	// Tracer, when non-nil, records one span per SSE broadcast burst.
	Tracer *trace.Tracer
	// Pprof mounts net/http/pprof profile handlers (CPU, heap,
	// goroutine, block, ...) under /debug/pprof/.
	Pprof bool
}

// ObsMux builds the shared observability mux from its config.
func ObsMux(c MuxConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", c.Registry.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if c.Health != nil {
			writeJSON(w, http.StatusOK, c.Health())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if c.Events != nil {
		mux.HandleFunc("GET /events", sseHandler(c))
	}
	if c.Pprof {
		// pprof.Index dispatches /debug/pprof/{heap,goroutine,block,...}
		// itself; only the fixed-path handlers need explicit mounts.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// sseHandler streams the event log as server-sent events. Each event is
// an `id:`/`event:`/`data:` frame; ?from=<seq> resumes after a known
// sequence number (older entries may have been evicted from the ring —
// the `id:` lines tell the client what it actually got). A cursor past
// the newest seq can only come from an earlier process: 400, not a wait.
func sseHandler(c MuxConfig) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		after := uint64(0)
		if s := r.URL.Query().Get("from"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad from= sequence", http.StatusBadRequest)
				return
			}
			after = v
		}
		if newest := c.Events.LastSeq(); after > newest {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "from= is past the newest event", "newest": newest})
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		if c.SSEClients != nil {
			c.SSEClients.Add(1)
			defer c.SSEClients.Add(-1)
		}
		ctx := r.Context()
		if c.Closing != nil {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
			go func() {
				select {
				case <-c.Closing:
					cancel()
				case <-ctx.Done():
				}
			}()
		}
		for {
			evs := c.Events.Since(after)
			if len(evs) > 0 {
				sp := c.Tracer.Event(0).Start("serve.sse_broadcast")
				if after > 0 && evs[0].Seq > after+1 {
					// The ring evicted entries between the client's resume
					// point and the oldest retained event. Tell it
					// explicitly what it missed rather than letting the id:
					// jump pass silently. No id: line — a reconnecting
					// client must not resume from the gap marker itself.
					fmt.Fprintf(w, "event: gap\ndata: {\"requested\":%d,\"oldest\":%d}\n\n",
						after+1, evs[0].Seq)
				}
				for _, ev := range evs {
					after = ev.Seq
					payload, err := json.Marshal(ev)
					if err != nil {
						continue
					}
					fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, payload)
				}
				fl.Flush()
				if sp.Live() {
					sp.Arg("events", int64(len(evs)))
					sp.Arg("last_seq", int64(after))
					sp.End()
				}
			}
			if !c.Events.Wait(ctx, after) {
				return
			}
		}
	}
}

// httpErr carries a status code through a read handler's error return.
type httpErr struct {
	code int
	msg  string
}

func (e *httpErr) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpErr{code: code, msg: fmt.Sprintf(format, args...)}
}

// Handler assembles the server's full HTTP surface: the shared
// observability mux plus the snapshot-isolated state reads and the
// admin event injector.
func (s *Server) Handler() http.Handler {
	mux := ObsMux(MuxConfig{
		Registry:   s.reg,
		Events:     s.events,
		Health:     s.health,
		Closing:    s.web.closing,
		SSEClients: s.metrics.sseClients,
		Tracer:     s.tracer,
		Pprof:      s.cfg.Pprof,
	})
	mux.HandleFunc("GET /state", s.read(s.handleStateIndex))
	mux.HandleFunc("GET /state/{dest}", s.read(s.handleStateRead))
	mux.HandleFunc("GET /state/{dest}/{as}/why", s.read(s.handleWhy))
	mux.HandleFunc("POST /admin/event", s.handleAdminEvent)
	mux.HandleFunc("POST /admin/steer-switch", s.handleSteerSwitch)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	return mux
}

// handleFlight serves the most recent flight-recorder dump — the same
// Chrome trace JSON written to TraceDir, retrievable without filesystem
// access to the serving host.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	dump := s.flight.Latest()
	if dump == nil {
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": "no flight-recorder dumps taken yet"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(dump)
}

func (s *Server) health() any {
	return map[string]any{
		"status":               "ok",
		"epoch":                s.epoch.Load(),
		"events_applied":       s.eventsApplied.Load(),
		"last_event_seq":       s.events.LastSeq(),
		"flight_dumps":         s.flight.Count(),
		"dests":                len(s.shards),
		"ases":                 s.g.Len(),
		"scenario":             s.cfg.Scenario.String(),
		"provenance_entries":   s.provEntries.Load(),
		"provenance_evictions": s.provEvictions.Load(),
		"uptime_seconds":       time.Since(s.started).Seconds(),
	}
}

// read instruments a state read: latency histogram, totals, in-flight
// gauge, and JSON error rendering for handler-returned httpErrs.
func (s *Server) read(h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := s.tracer.Event(0).Start("serve.read")
		if sp.Live() {
			sp.ArgStr("path", r.URL.Path)
		}
		start := time.Now()
		s.metrics.inFlight.Add(1)
		err := h(w, r)
		s.metrics.inFlight.Add(-1)
		elapsed := time.Since(start)
		s.metrics.readSeconds.Observe(elapsed.Seconds())
		s.metrics.readsTotal.Inc()
		if sp.Live() {
			sp.Arg("us", elapsed.Microseconds())
			sp.End()
		}
		if s.cfg.ReadSLO > 0 && elapsed > s.cfg.ReadSLO {
			// A breach on a /state/{dest} read embeds that shard's recent
			// provenance entries: the route changes that were settling (or
			// just settled) around the slow read.
			var extra map[string]any
			if tail := s.provTail(r.PathValue("dest")); tail != nil {
				extra = map[string]any{"prov_tail": tail}
			}
			s.flight.triggerMeta("read-slo",
				fmt.Sprintf("%s took %s (SLO %s)", r.URL.Path, elapsed, s.cfg.ReadSLO), extra)
		}
		if err != nil {
			s.metrics.readErrors.Inc()
			code := http.StatusInternalServerError
			var he *httpErr
			if errors.As(err, &he) {
				code = he.code
			}
			writeJSON(w, code, map[string]string{"error": err.Error()})
		}
	}
}

// StateIndex is the GET /state payload: the served destinations.
type StateIndex struct {
	Epoch uint64  `json:"epoch"`
	Dests []int64 `json:"dests"`
}

func (s *Server) handleStateIndex(w http.ResponseWriter, r *http.Request) error {
	idx := StateIndex{Epoch: s.epoch.Load(), Dests: make([]int64, len(s.shards))}
	for i, sh := range s.shards {
		idx.Dests[i] = s.g.OriginalASN(sh.dest)
	}
	writeJSON(w, http.StatusOK, idx)
	return nil
}

// PlaneRoute is one plane's route toward the destination from a given
// AS, as read from a published snapshot.
type PlaneRoute struct {
	Plane string `json:"plane"`
	Kind  string `json:"kind"`
	Dist  int32  `json:"dist"`
	// Next is the next-hop AS (original number); 0 for the origin
	// itself and for routeless ASes.
	Next int64 `json:"next,omitempty"`
}

// StateRead is the GET /state/{dest}?as=N payload: the snapshot-epoch
// routes from one AS toward one destination across all three planes.
type StateRead struct {
	Dest   int64        `json:"dest"`
	AS     int64        `json:"as"`
	Epoch  uint64       `json:"epoch"`
	Planes []PlaneRoute `json:"planes"`
}

// StateSummary is the GET /state/{dest} payload (no ?as=): per-plane
// reachability of the destination at the snapshot epoch.
type StateSummary struct {
	Dest             int64            `json:"dest"`
	Epoch            uint64           `json:"epoch"`
	ASes             int              `json:"ases"`
	Reachable        map[string]int32 `json:"reachable"`
	StampUnreachable int32            `json:"stamp_unreachable"`
}

var planeNames = [atlas.PlaneCount]string{"bgp", "red", "blue"}

func (s *Server) handleStateRead(w http.ResponseWriter, r *http.Request) error {
	destASN, err := strconv.ParseInt(r.PathValue("dest"), 10, 64)
	if err != nil {
		return errf(http.StatusBadRequest, "bad destination %q", r.PathValue("dest"))
	}
	i, ok := s.destIdx[destASN]
	if !ok {
		return errf(http.StatusNotFound, "destination AS %d is not served (see /state)", destASN)
	}
	sh := s.shards[i]

	asParam := r.URL.Query().Get("as")
	if asParam == "" {
		// Summary read: per-plane reachability at the published epoch.
		snap := sh.acquire()
		dest, epoch, reach, unreach := snap.destASN, snap.epoch, snap.reachable, snap.stampUnreachable
		sh.release(snap)
		bp := stateBufs.Get().(*[]byte)
		*bp = appendStateSummary((*bp)[:0], dest, epoch, s.g.Len(), &reach, unreach)
		writeEncoded(w, *bp)
		stateBufs.Put(bp)
		return nil
	}

	asn, err := strconv.ParseInt(asParam, 10, 64)
	if err != nil {
		return errf(http.StatusBadRequest, "bad as=%q", asParam)
	}
	dense, ok := s.byASN[asn]
	if !ok {
		return errf(http.StatusNotFound, "unknown AS %d", asn)
	}
	// Extract under the snapshot pin, release before serialization.
	var planes [atlas.PlaneCount]PlaneRoute
	snap := sh.acquire()
	read := StateRead{Dest: snap.destASN, AS: asn, Epoch: snap.epoch, Planes: planes[:]}
	for p := range planes {
		pr := &planes[p]
		pr.Plane = planeNames[p]
		pr.Kind = atlas.KindName(snap.kind[p][dense])
		pr.Dist = snap.dist[p][dense]
		if next := snap.next[p][dense]; next >= 0 {
			pr.Next = s.g.OriginalASN(topology.ASN(next))
		}
	}
	sh.release(snap)
	bp := stateBufs.Get().(*[]byte)
	*bp = appendStateRead((*bp)[:0], &read)
	writeEncoded(w, *bp)
	stateBufs.Put(bp)
	return nil
}

// stateBufs recycles the buffers point and summary reads encode into.
var stateBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeEncoded sends a payload the append encoders below built, with
// the status and Content-Type writeJSON would have set.
func writeEncoded(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// The state-read encoders append exactly the bytes writeJSON's
// json.Encoder with SetIndent("", "  ") writes for the same value —
// field order, `next` omitted when 0, map keys sorted, trailing
// newline — without reflection or a second indenting pass. A wire test
// holds them to encoding/json.

// appendStateRead appends a point-read payload; r.Planes is never
// empty.
func appendStateRead(b []byte, r *StateRead) []byte {
	b = append(b, "{\n  \"dest\": "...)
	b = strconv.AppendInt(b, r.Dest, 10)
	b = append(b, ",\n  \"as\": "...)
	b = strconv.AppendInt(b, r.AS, 10)
	b = append(b, ",\n  \"epoch\": "...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	b = append(b, ",\n  \"planes\": ["...)
	for i := range r.Planes {
		p := &r.Planes[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"plane\": "...)
		b = appendJSONString(b, p.Plane)
		b = append(b, ",\n      \"kind\": "...)
		b = appendJSONString(b, p.Kind)
		b = append(b, ",\n      \"dist\": "...)
		b = strconv.AppendInt(b, int64(p.Dist), 10)
		if p.Next != 0 {
			b = append(b, ",\n      \"next\": "...)
			b = strconv.AppendInt(b, p.Next, 10)
		}
		b = append(b, "\n    }"...)
	}
	return append(b, "\n  ]\n}\n"...)
}

// summaryOrder lists the planes in the order encoding/json writes
// StateSummary.Reachable's keys: sorted, so bgp, blue, red.
var summaryOrder = [atlas.PlaneCount]int{0, 2, 1}

// appendStateSummary appends a summary-read payload (a StateSummary).
func appendStateSummary(b []byte, dest int64, epoch uint64, ases int, reachable *[atlas.PlaneCount]int32, stampUnreachable int32) []byte {
	b = append(b, "{\n  \"dest\": "...)
	b = strconv.AppendInt(b, dest, 10)
	b = append(b, ",\n  \"epoch\": "...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, ",\n  \"ases\": "...)
	b = strconv.AppendInt(b, int64(ases), 10)
	b = append(b, ",\n  \"reachable\": {"...)
	for i, p := range summaryOrder {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = appendJSONString(b, planeNames[p])
		b = append(b, ": "...)
		b = strconv.AppendInt(b, int64(reachable[p]), 10)
	}
	b = append(b, "\n  },\n  \"stamp_unreachable\": "...)
	b = strconv.AppendInt(b, int64(stampUnreachable), 10)
	return append(b, "\n}\n"...)
}

// appendJSONString appends s quoted. Plane and kind names are plain
// ASCII identifiers, which JSON quotes verbatim.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// WhyResponse is the GET /state/{dest}/{as}/why payload: the causal
// provenance chains for one (destination, AS) pair at the current
// epoch — every journal entry on the path from the asking AS to the
// origin (or to the eviction horizon), per plane.
type WhyResponse struct {
	Epoch uint64 `json:"epoch"`
	*atlas.WhyReport
}

func (s *Server) handleWhy(w http.ResponseWriter, r *http.Request) error {
	destASN, err := strconv.ParseInt(r.PathValue("dest"), 10, 64)
	if err != nil {
		return errf(http.StatusBadRequest, "bad destination %q", r.PathValue("dest"))
	}
	i, ok := s.destIdx[destASN]
	if !ok {
		return errf(http.StatusNotFound, "destination AS %d is not served (see /state)", destASN)
	}
	asn, err := strconv.ParseInt(r.PathValue("as"), 10, 64)
	if err != nil {
		return errf(http.StatusBadRequest, "bad as %q", r.PathValue("as"))
	}
	dense, ok := s.byASN[asn]
	if !ok {
		return errf(http.StatusNotFound, "unknown AS %d", asn)
	}
	sh := s.shards[i]
	// The chain walk reads the journal — and may rebuild its index, one
	// O(cap) pass after each event — so it takes the shard's journal
	// lock rather than the snapshot pin; the epoch is read after the
	// walk so the pair is consistent under the single writer.
	sh.provMu.Lock()
	rep := atlas.BuildWhy(s.g, sh.j, sh.dest, topology.ASN(dense))
	sh.provMu.Unlock()
	s.metrics.whyTotal.Inc()
	for _, c := range rep.Chains {
		if c.Truncated {
			s.metrics.whyTruncated.Inc()
			break
		}
	}
	writeJSON(w, http.StatusOK, WhyResponse{Epoch: s.epoch.Load(), WhyReport: rep})
	return nil
}

// provTail renders the newest provenance entries of one destination
// shard for flight-recorder metadata. Returns nil when destStr does
// not name a served destination (e.g. the breach was on /state itself).
func (s *Server) provTail(destStr string) []string {
	asn, err := strconv.ParseInt(destStr, 10, 64)
	if err != nil {
		return nil
	}
	i, ok := s.destIdx[asn]
	if !ok {
		return nil
	}
	sh := s.shards[i]
	sh.provMu.Lock()
	tail := sh.j.Tail(flightTailSize)
	sh.provMu.Unlock()
	out := make([]string, len(tail))
	for k, e := range tail {
		next := "none"
		switch {
		case e.NewNext >= 0:
			next = fmt.Sprintf("via %d", s.g.OriginalASN(topology.ASN(e.NewNext)))
		case e.NewNext == -2:
			next = "origin"
		}
		out[k] = fmt.Sprintf("seq %d ev %d %s round %d %s AS %d %s/%d -> %s/%d %s",
			e.Seq, e.Event, atlas.PlaneName(int(e.Plane)), e.Round, e.Cause,
			s.g.OriginalASN(topology.ASN(e.AS)),
			atlas.KindName(e.PrevKind), e.PrevDist,
			atlas.KindName(e.NewKind), e.NewDist, next)
	}
	return out
}

// AdminEvent is the POST /admin/event request body. ASNs are original
// (snapshot) numbers; op is fail-link, restore-link, or fail-node.
type AdminEvent struct {
	Op   string `json:"op"`
	A    int64  `json:"a,omitempty"`
	B    int64  `json:"b,omitempty"`
	Node int64  `json:"node,omitempty"`
}

func parseOp(s string) (scenario.Op, error) {
	switch s {
	case scenario.OpFailLink.String():
		return scenario.OpFailLink, nil
	case scenario.OpRestoreLink.String():
		return scenario.OpRestoreLink, nil
	case scenario.OpFailNode.String():
		return scenario.OpFailNode, nil
	}
	return 0, fmt.Errorf("unknown op %q (want fail-link, restore-link, or fail-node)", s)
}

// maxAdminBody bounds an admin request body.
const maxAdminBody = 64 << 10

// decodeAdmin decodes an admin request body into v, or writes the error
// response and returns false: 413 when the body exceeds maxAdminBody,
// 400 when it is not JSON or names a field v does not have.
func decodeAdmin(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxAdminBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Drain what follows the value, so an oversized body is refused
		// whatever its first maxAdminBody bytes hold.
		_, err = io.Copy(io.Discard, body)
	}
	if err == nil {
		return true
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
	return false
}

func (s *Server) handleAdminEvent(w http.ResponseWriter, r *http.Request) {
	var req AdminEvent
	if !decodeAdmin(w, r, &req) {
		return
	}
	op, err := parseOp(req.Op)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	rec, err := s.applyByASN(op, req.A, req.B, req.Node)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// SteerSwitch is the POST /admin/steer-switch request body: a steering
// agent reporting that one source flipped its color preference. Source
// is the original (snapshot) ASN; CurMs/OtherMs are the effective
// latencies the policy saw on the plane it left and the plane it chose.
type SteerSwitch struct {
	Source  int64   `json:"source"`
	To      string  `json:"to"`
	CurMs   float64 `json:"cur_ms"`
	OtherMs float64 `json:"other_ms"`
}

// SteerSwitchAck is the endpoint's response: the window occupancy after
// this switch and whether it crossed the flap threshold (and therefore
// took a flight dump).
type SteerSwitchAck struct {
	Source           int64 `json:"source"`
	SwitchesInWindow int   `json:"switches_in_window"`
	Flapped          bool  `json:"flapped"`
}

func (s *Server) handleSteerSwitch(w http.ResponseWriter, r *http.Request) {
	var req SteerSwitch
	if !decodeAdmin(w, r, &req) {
		return
	}
	if _, ok := s.byASN[req.Source]; !ok {
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": fmt.Sprintf("unknown source AS %d", req.Source)})
		return
	}
	if req.To != "red" && req.To != "blue" {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("bad color %q (want red or blue)", req.To)})
		return
	}
	count, flapped := s.steer.note(req.Source, req.To, req.CurMs, req.OtherMs)
	writeJSON(w, http.StatusOK, SteerSwitchAck{
		Source: req.Source, SwitchesInWindow: count, Flapped: flapped,
	})
}

// webState holds the HTTP listener lifecycle.
type webState struct {
	srv     *http.Server
	closing chan struct{}
	done    chan error
}

// Start binds addr and serves the HTTP surface in the background,
// returning the bound address (useful with a :0 port).
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: bind %s: %w", addr, err)
	}
	s.web.closing = make(chan struct{})
	s.web.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       time.Minute,
	}
	s.web.done = make(chan error, 1)
	go func() { s.web.done <- s.web.srv.Serve(ln) }()
	go s.flight.monitor(s.web.closing, 2*time.Second)
	s.events.Append("listening", "http on "+ln.Addr().String(), nil)
	s.logf("serve: listening on http://%s", ln.Addr())
	return ln.Addr().String(), nil
}

// Shutdown terminates open event streams, then drains in-flight
// requests and closes the listener.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.web.srv == nil {
		return nil
	}
	close(s.web.closing)
	err := s.web.srv.Shutdown(ctx)
	<-s.web.done
	return err
}
