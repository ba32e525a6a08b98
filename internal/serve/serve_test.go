package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/obs"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

func testGraph(t *testing.T, n int) *atlas.Graph {
	t.Helper()
	tg, err := topology.GenerateDefault(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := atlas.FromTopology(tg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testServer(t *testing.T, n, dests int) *Server {
	t.Helper()
	s, err := New(Config{
		Graph:    testGraph(t, n),
		Scenario: scenario.FlapStorm,
		Dests:    dests,
		Seed:     7,
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startServer boots the HTTP surface on an ephemeral port and tears it
// down with the test.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Drop this test's keep-alive connections first so Shutdown's
		// idle-close pass doesn't race a client-held conn.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return "http://" + addr
}

func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := getJSON(context.Background(), http.DefaultClient, url, v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestServerBootAndRead(t *testing.T) {
	s := testServer(t, 300, 4)
	base := startServer(t, s)

	var idx StateIndex
	mustGetJSON(t, base+"/state", &idx)
	if len(idx.Dests) != 4 {
		t.Fatalf("dests = %v, want 4", idx.Dests)
	}
	if idx.Epoch != 0 {
		t.Errorf("boot epoch = %d, want 0", idx.Epoch)
	}

	// Summary read: the destination itself is reachable in every plane,
	// so reachable counts are at least 1.
	var sum StateSummary
	mustGetJSON(t, fmt.Sprintf("%s/state/%d", base, idx.Dests[0]), &sum)
	if sum.Dest != idx.Dests[0] || sum.ASes != s.g.Len() {
		t.Errorf("summary = %+v", sum)
	}
	for _, plane := range []string{"bgp", "red", "blue"} {
		if sum.Reachable[plane] < 1 {
			t.Errorf("plane %s reachable = %d, want >= 1", plane, sum.Reachable[plane])
		}
	}

	// Point read at the destination itself: the origin's own route has
	// no next hop and distance 0 in every plane it participates in.
	var read StateRead
	mustGetJSON(t, fmt.Sprintf("%s/state/%d?as=%d", base, idx.Dests[0], idx.Dests[0]), &read)
	if len(read.Planes) != atlas.PlaneCount {
		t.Fatalf("planes = %d, want %d", len(read.Planes), atlas.PlaneCount)
	}
	for _, pr := range read.Planes {
		if pr.Kind == "none" {
			continue
		}
		if pr.Dist != 0 || pr.Next != 0 {
			t.Errorf("origin route in %s = %+v, want dist 0 no next hop", pr.Plane, pr)
		}
	}

	var health struct {
		Status string `json:"status"`
		Dests  int    `json:"dests"`
	}
	mustGetJSON(t, base+"/healthz", &health)
	if health.Status != "ok" || health.Dests != 4 {
		t.Errorf("health = %+v", health)
	}

	// Errors: unknown destination 404s, bad AS 404s, junk 400s — and
	// all are counted.
	for _, path := range []string{"/state/999999999", fmt.Sprintf("/state/%d?as=999999999", idx.Dests[0]), "/state/xyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 4xx", path, resp.StatusCode)
		}
	}
	if got := s.metrics.readErrors.Value(); got != 3 {
		t.Errorf("read errors counted = %d, want 3", got)
	}
}

func TestApplyEventsAdvancesEpoch(t *testing.T) {
	s := testServer(t, 300, 3)
	if len(s.script) == 0 {
		t.Fatal("empty script")
	}
	for i, ev := range s.script {
		rec, err := s.ApplyEvent(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if rec.Epoch != uint64(i+1) {
			t.Errorf("event %d epoch = %d, want %d", i, rec.Epoch, i+1)
		}
		if rec.Op != ev.Op.String() {
			t.Errorf("event %d op = %q, want %q", i, rec.Op, ev.Op)
		}
	}
	if got := s.Epoch(); got != uint64(len(s.script)) {
		t.Errorf("final epoch = %d, want %d", got, len(s.script))
	}
	// Every shard's published snapshot is at the final epoch.
	for _, sh := range s.shards {
		snap := sh.acquire()
		if snap.epoch != s.Epoch() {
			t.Errorf("dest %d published epoch %d, want %d", sh.dest, snap.epoch, s.Epoch())
		}
		sh.release(snap)
	}
	// A flap-storm cycle is restore-balanced: post-cycle routes match
	// the boot fixpoint, so reachability should be back to full.
	if got := s.events.LastSeq(); got < uint64(len(s.script)) {
		t.Errorf("event log seq = %d, want >= %d", got, len(s.script))
	}
}

func TestAdminEventEndpoint(t *testing.T) {
	s := testServer(t, 300, 2)
	base := startServer(t, s)

	// Use the script's own first link event so the link surely exists.
	var link scenario.Event
	for _, ev := range s.script {
		if ev.Op == scenario.OpFailLink {
			link = ev
			break
		}
	}
	a, b := s.g.OriginalASN(link.A), s.g.OriginalASN(link.B)
	post := func(body string) (int, string) {
		resp, err := http.Post(base+"/admin/event", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			buf.WriteString(sc.Text())
		}
		return resp.StatusCode, buf.String()
	}

	code, body := post(fmt.Sprintf(`{"op":"fail-link","a":%d,"b":%d}`, a, b))
	if code != http.StatusOK {
		t.Fatalf("fail-link = %d: %s", code, body)
	}
	var rec EventRecord
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 1 || rec.A != a || rec.B != b {
		t.Errorf("record = %+v", rec)
	}
	code, _ = post(fmt.Sprintf(`{"op":"restore-link","a":%d,"b":%d}`, a, b))
	if code != http.StatusOK {
		t.Fatalf("restore-link = %d", code)
	}

	for _, bad := range []string{
		`{"op":"withdraw","node":1}`,                          // not allowed via admin
		`{"op":"fail-link","a":1,"b":999999}`,                 // unknown AS
		fmt.Sprintf(`{"op":"fail-link","a":%d,"b":%d}`, a, a), // no such link
		`{not json`,
	} {
		if code, _ := post(bad); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", bad, code)
		}
	}
	if got := s.Epoch(); got != 2 {
		t.Errorf("epoch = %d, want 2 (bad requests must not apply)", got)
	}
}

func TestSSEStreamAndResume(t *testing.T) {
	s := testServer(t, 300, 2)
	base := startServer(t, s)
	for _, ev := range s.script {
		if _, err := s.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}

	// Resume from the middle of the log: only later frames arrive.
	from := s.events.LastSeq() / 2
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/events?from=%d", base, from), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	want := int(s.events.LastSeq() - from)
	var ids []uint64
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(ids) < want {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			var id uint64
			fmt.Sscanf(line, "id: %d", &id)
			ids = append(ids, id)
		}
		if strings.HasPrefix(line, "event: ") {
			kinds = append(kinds, strings.TrimPrefix(line, "event: "))
		}
	}
	if len(ids) != want {
		t.Fatalf("streamed %d frames, want %d", len(ids), want)
	}
	for i, id := range ids {
		if id != from+uint64(i)+1 {
			t.Errorf("frame %d id = %d, want %d", i, id, from+uint64(i)+1)
		}
	}
	for _, k := range kinds {
		if k != "event-applied" {
			t.Errorf("unexpected frame kind %q", k)
		}
	}
	cancel()
}

// TestSSEFromCursor table-tests the ?from= cursor on the handler both
// muxes mount: a cursor at or below the newest seq streams (status 200,
// then waiting for events), a malformed one is refused, and one past
// the newest seq — only possible from an earlier process — is refused
// with the newest seq in the body instead of blocking.
func TestSSEFromCursor(t *testing.T) {
	events := obs.NewEventLog(8)
	for i := 0; i < 5; i++ {
		events.Append("event-applied", "", nil)
	}
	h := sseHandler(MuxConfig{Events: events})
	for _, tc := range []struct {
		from   string
		code   int
		newest uint64 // checked on 400s with a JSON body
	}{
		{"", http.StatusOK, 0},
		{"0", http.StatusOK, 0},
		{"3", http.StatusOK, 0},
		{"5", http.StatusOK, 0},
		{"abc", http.StatusBadRequest, 0},
		{"6", http.StatusBadRequest, 5},
		{"1000", http.StatusBadRequest, 5},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		req := httptest.NewRequest(http.MethodGet, "/events?from="+tc.from, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		h(rec, req)
		cancel()
		if rec.Code != tc.code {
			t.Errorf("from=%q: status %d, want %d (body %q)", tc.from, rec.Code, tc.code, rec.Body)
			continue
		}
		if tc.newest == 0 {
			continue
		}
		var body struct {
			Newest uint64 `json:"newest"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Newest != tc.newest {
			t.Errorf("from=%q: body %q, want newest %d", tc.from, rec.Body, tc.newest)
		}
	}
}

// TestConcurrentReadersAndWriter is the race gate: a paced replay
// writer cycling the script while HTTP readers, direct snapshot
// acquirers, and a metrics scraper all run flat out. Run with -race.
func TestConcurrentReadersAndWriter(t *testing.T) {
	s := testServer(t, 300, 3)
	base := startServer(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("run: %v", err)
		}
	}()

	var idx StateIndex
	mustGetJSON(t, base+"/state", &idx)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for ctx.Err() == nil {
				var read StateRead
				url := fmt.Sprintf("%s/state/%d?as=%d", base, idx.Dests[r%len(idx.Dests)], idx.Dests[(r+1)%len(idx.Dests)])
				if err := getJSON(ctx, http.DefaultClient, url, &read); err != nil && ctx.Err() == nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	// Provenance chain reads race the writer's journal appends through
	// the shard locks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			var why WhyResponse
			url := fmt.Sprintf("%s/state/%d/%d/why", base, idx.Dests[0], idx.Dests[1%len(idx.Dests)])
			if err := getJSON(ctx, http.DefaultClient, url, &why); err != nil && ctx.Err() == nil {
				t.Errorf("why reader: %v", err)
				return
			}
		}
	}()
	// Direct snapshot pinning alongside the HTTP path: verify epochs
	// are internally consistent (a pinned buffer never mutates).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			for _, sh := range s.shards {
				snap := sh.acquire()
				e1 := snap.epoch
				k := snap.kind[atlas.PlaneBGP][0]
				if e2 := snap.epoch; e1 != e2 {
					t.Errorf("pinned snapshot epoch moved %d -> %d", e1, e2)
				}
				_ = k
				sh.release(snap)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			if _, _, err := scrape(ctx, http.DefaultClient, base+"/metrics"); err != nil && ctx.Err() == nil {
				t.Errorf("scrape: %v", err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	if s.Epoch() == 0 {
		t.Error("writer applied no events during the race window")
	}
}

func TestSwarmAgainstLiveServer(t *testing.T) {
	// Pace the writer gently: under -race a hot replay loop can starve
	// the reader swarm on a small CI box, which is not what this test
	// is about (TestConcurrentReadersAndWriter covers contention).
	s, err := New(Config{
		Graph:    testGraph(t, 300),
		Scenario: scenario.FlapStorm,
		Dests:    4,
		Seed:     7,
		Interval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Run(ctx)
	}()

	rep, err := RunSwarm(ctx, SwarmOptions{
		BaseURL:  base,
		Readers:  8,
		Duration: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Errorf("swarm: %d requests, %d errors", rep.Requests, rep.Errors)
	}
	if !rep.CountersMonotonic {
		t.Errorf("counters regressed: %v", rep.NonMonotonic)
	}
	if rep.EpochEnd <= rep.EpochStart {
		t.Errorf("epoch did not advance under load: %d -> %d", rep.EpochStart, rep.EpochEnd)
	}
	if rep.EventsStreamed == 0 {
		t.Error("SSE consumer saw no events")
	}
	if rep.ReadP99Ms <= 0 {
		t.Errorf("read p99 = %v", rep.ReadP99Ms)
	}
}

func TestRepeatRequiresBalancedScript(t *testing.T) {
	_, err := New(Config{
		Graph:    testGraph(t, 300),
		Scenario: scenario.NodeFailure,
		Seed:     7,
		Repeat:   0, // endless — needs a restore-balanced script
	})
	if err == nil {
		t.Fatal("want repeat rejection for node-failure script")
	}
	// A single pass of the same scenario is fine.
	if _, err := New(Config{
		Graph:    testGraph(t, 300),
		Scenario: scenario.NodeFailure,
		Seed:     7,
		Repeat:   1,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownDrainsSSE(t *testing.T) {
	s := testServer(t, 300, 2)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Park a stream client, then shut down: Shutdown must not hang on
	// the open stream.
	streaming := make(chan struct{})
	go func() {
		resp, err := http.Get("http://" + addr + "/events")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		close(streaming)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}()
	<-streaming
	for i := 0; s.metrics.sseClients.Value() == 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("shutdown hung on open SSE stream")
	}
}
