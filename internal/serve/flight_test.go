package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stamp/internal/obs"
	"stamp/internal/scenario"
)

// flightDump is the subset of a Chrome trace dump the tests assert on.
type flightDump struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	} `json:"traceEvents"`
	Metadata map[string]any `json:"metadata"`
}

// TestReadSLOFlightDump drives the full breach path: a read exceeds an
// absurdly tight SLO, the flight recorder dumps, and the dump is
// retrievable both at GET /debug/flight and from TraceDir.
func TestReadSLOFlightDump(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{
		Graph:    testGraph(t, 300),
		Scenario: scenario.FlapStorm,
		Dests:    2,
		Seed:     7,
		ReadSLO:  time.Nanosecond, // every read breaches
		TraceDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)

	// One applied event so the rings hold an event trace, then a read
	// of a destination shard to trip the SLO (a dest-scoped breach also
	// embeds that shard's provenance tail).
	if _, err := s.ApplyEvent(s.script[0]); err != nil {
		t.Fatal(err)
	}
	destASN := s.g.OriginalASN(s.shards[0].dest)
	var sum StateSummary
	mustGetJSON(t, fmt.Sprintf("%s/state/%d", base, destASN), &sum)

	// The trigger runs after the read's response is written; poll.
	var dump []byte
	for i := 0; i < 100 && dump == nil; i++ {
		resp, err := http.Get(base + "/debug/flight")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var sb strings.Builder
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				sb.WriteString(sc.Text())
				sb.WriteString("\n")
			}
			dump = []byte(sb.String())
		}
		resp.Body.Close()
		if dump == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if dump == nil {
		t.Fatal("no flight dump retrievable after SLO breach")
	}

	var fd flightDump
	if err := json.Unmarshal(dump, &fd); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if fd.Metadata["flight_reason"] != "read-slo" {
		t.Errorf("flight_reason = %v, want read-slo", fd.Metadata["flight_reason"])
	}
	if _, ok := fd.Metadata["event_log_tail"]; !ok {
		t.Error("dump metadata missing event_log_tail")
	}
	tail, ok := fd.Metadata["prov_tail"].([]any)
	if !ok || len(tail) == 0 {
		t.Errorf("dump metadata prov_tail = %v, want the breached shard's recent route changes", fd.Metadata["prov_tail"])
	}
	names := map[string]bool{}
	for _, ev := range fd.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event ph = %q, want X", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"serve.read", "serve.apply_event", "atlas.apply_event"} {
		if !names[want] {
			t.Errorf("dump has no %s span; got %v", want, names)
		}
	}

	// The same dump landed on disk.
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no flight dumps in %s (err %v)", dir, err)
	}
	onDisk, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(onDisk, &fd); err != nil {
		t.Fatalf("on-disk dump is not valid JSON: %v", err)
	}

	// healthz reflects the breach and the event plumbing.
	var health struct {
		Epoch        uint64 `json:"epoch"`
		LastEventSeq uint64 `json:"last_event_seq"`
		FlightDumps  uint64 `json:"flight_dumps"`
	}
	mustGetJSON(t, base+"/healthz", &health)
	if health.Epoch != 1 {
		t.Errorf("healthz epoch = %d, want 1", health.Epoch)
	}
	if health.LastEventSeq == 0 {
		t.Error("healthz last_event_seq = 0, want > 0")
	}
	if health.FlightDumps == 0 {
		t.Error("healthz flight_dumps = 0, want > 0")
	}
}

// TestFlightRecorderRateLimitAndMonotonic unit-tests the recorder's
// rate limiting and the self-scrape monotonicity trigger with an
// injected clock.
func TestFlightRecorderRateLimitAndMonotonic(t *testing.T) {
	s := testServer(t, 300, 2)
	f := s.flight
	now := time.Unix(1000, 0)
	f.now = func() time.Time { return now }

	f.trigger("read-slo", "first")
	f.trigger("read-slo", "suppressed") // same instant: rate-limited
	if got := f.Count(); got != 1 {
		t.Fatalf("dumps after back-to-back triggers = %d, want 1", got)
	}
	now = now.Add(flightMinGap + time.Millisecond)
	f.trigger("reroot", "second")
	if got := f.Count(); got != 2 {
		t.Fatalf("dumps after gap = %d, want 2", got)
	}
	var fd flightDump
	if err := json.Unmarshal(f.Latest(), &fd); err != nil {
		t.Fatal(err)
	}
	if fd.Metadata["flight_reason"] != "reroot" {
		t.Errorf("latest dump reason = %v, want reroot", fd.Metadata["flight_reason"])
	}

	// A fabricated earlier scrape claiming a higher counter makes the
	// current registry look non-monotonic — the monitor must dump.
	prev, err := obs.ParseText(strings.NewReader(
		"# TYPE stamp_serve_flight_dumps_total counter\nstamp_serve_flight_dumps_total 1e9\n"))
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(flightMinGap + time.Millisecond)
	cur := f.checkMonotonic(prev)
	if cur == nil {
		t.Fatal("checkMonotonic returned no scrape")
	}
	if got := f.Count(); got != 3 {
		t.Fatalf("dumps after non-monotonic scrape = %d, want 3", got)
	}
	if err := json.Unmarshal(f.Latest(), &fd); err != nil {
		t.Fatal(err)
	}
	if fd.Metadata["flight_reason"] != "non-monotonic" {
		t.Errorf("reason = %v, want non-monotonic", fd.Metadata["flight_reason"])
	}
	detail, _ := fd.Metadata["flight_detail"].(string)
	if !strings.Contains(detail, "stamp_serve_flight_dumps_total") {
		t.Errorf("detail %q does not name the regressed series", detail)
	}
	// A clean pair does not dump.
	if f.checkMonotonic(cur) == nil {
		t.Fatal("clean checkMonotonic returned no scrape")
	}
	if got := f.Count(); got != 3 {
		t.Errorf("clean scrape pair dumped: %d, want 3", got)
	}
}

// TestFlightTriggerConcurrentDedup pins the rate limiter against
// concurrent breaches: any number of triggers landing inside one
// rate-limit window produce exactly one dump — the mutex-guarded
// seq/last check is the dedup point, and the losers return without
// rendering. The injected clock is pinned so the whole race happens
// at one instant.
func TestFlightTriggerConcurrentDedup(t *testing.T) {
	s := testServer(t, 300, 2)
	f := s.flight
	now := time.Unix(2000, 0)
	var clockMu sync.Mutex
	f.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}

	race := func(label string) {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f.trigger("read-slo", fmt.Sprintf("%s breach %d", label, i))
			}(i)
		}
		wg.Wait()
	}

	race("w1")
	if got := f.Count(); got != 1 {
		t.Fatalf("dumps after 16 concurrent triggers = %d, want exactly 1", got)
	}
	// Still inside the window: a late straggler is also suppressed.
	f.trigger("read-slo", "straggler")
	if got := f.Count(); got != 1 {
		t.Fatalf("dumps after in-window straggler = %d, want 1", got)
	}

	clockMu.Lock()
	now = now.Add(flightMinGap + time.Millisecond)
	clockMu.Unlock()
	race("w2")
	if got := f.Count(); got != 2 {
		t.Fatalf("dumps after second window = %d, want exactly 2", got)
	}

	// Each window's winner rendered a complete document despite the 15
	// losers racing it.
	var fd flightDump
	if err := json.Unmarshal(f.Latest(), &fd); err != nil {
		t.Fatalf("latest dump unparseable: %v", err)
	}
	if fd.Metadata["flight_reason"] != "read-slo" {
		t.Errorf("reason = %v, want read-slo", fd.Metadata["flight_reason"])
	}
	if seq, _ := fd.Metadata["flight_seq"].(float64); seq != 2 {
		t.Errorf("flight_seq = %v, want 2", fd.Metadata["flight_seq"])
	}
}

// TestSSEGapResume pins satellite behavior: resuming from a sequence
// evicted from the event-log ring yields an explicit gap marker before
// the oldest retained event, and the marker carries no id: line.
func TestSSEGapResume(t *testing.T) {
	s, err := New(Config{
		Graph:        testGraph(t, 300),
		Scenario:     scenario.FlapStorm,
		Dests:        2,
		Seed:         7,
		EventLogSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)
	for _, ev := range s.script {
		if _, err := s.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	oldest := s.events.Evicted() + 1
	last := s.events.LastSeq()
	if oldest <= 2 {
		t.Fatalf("ring did not wrap (oldest %d); need more events", oldest)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events?from=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type frame struct {
		id   string
		kind string
		data string
	}
	var frames []frame
	var cur frame
	want := int(last-oldest) + 2 // gap marker + retained events
	sc := bufio.NewScanner(resp.Body)
	for len(frames) < want && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			frames = append(frames, cur)
			cur = frame{}
		}
	}
	if len(frames) != want {
		t.Fatalf("got %d frames, want %d", len(frames), want)
	}
	gap := frames[0]
	if gap.kind != "gap" || gap.id != "" {
		t.Fatalf("first frame = %+v, want event: gap with no id", gap)
	}
	var gapData struct {
		Requested uint64 `json:"requested"`
		Oldest    uint64 `json:"oldest"`
	}
	if err := json.Unmarshal([]byte(gap.data), &gapData); err != nil {
		t.Fatal(err)
	}
	if gapData.Requested != 2 || gapData.Oldest != oldest {
		t.Errorf("gap = %+v, want requested 2 oldest %d", gapData, oldest)
	}
	for i, fr := range frames[1:] {
		if wantID := fmt.Sprint(oldest + uint64(i)); fr.id != wantID {
			t.Errorf("frame %d id = %s, want %s", i+1, fr.id, wantID)
		}
	}

	// Resuming inside the retained window emits no gap marker.
	req2, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/events?from=%d", base, last-1), nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		line := sc2.Text()
		if strings.HasPrefix(line, "event: gap") {
			t.Fatal("in-window resume produced a gap marker")
		}
		if line == "" {
			break
		}
	}
}

// TestPprofGate checks the profile surface is mounted only on request.
func TestPprofGate(t *testing.T) {
	s, err := New(Config{
		Graph:    testGraph(t, 300),
		Scenario: scenario.FlapStorm,
		Dests:    1,
		Seed:     7,
		Pprof:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)
	resp, err := http.Get(base + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/goroutine = %d, want 200", resp.StatusCode)
	}

	off := testServer(t, 300, 1)
	offBase := startServer(t, off)
	resp, err = http.Get(offBase + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/goroutine = %d, want 404", resp.StatusCode)
	}
}

// TestServeSpansRecorded checks the serve plane's instrumentation ends
// up in the tracer rings: an applied event yields the serve root span
// with the per-shard atlas work parented under it, and reads record
// serve.read spans. Runtime gauges ride along on /metrics.
func TestServeSpansRecorded(t *testing.T) {
	s := testServer(t, 300, 2)
	base := startServer(t, s)
	if _, err := s.ApplyEvent(s.script[0]); err != nil {
		t.Fatal(err)
	}
	var idx StateIndex
	mustGetJSON(t, base+"/state", &idx)

	recs := s.tracer.Snapshot()
	counts := map[string]int{}
	byID := map[uint64]string{}
	for _, r := range recs {
		counts[r.Name]++
		byID[r.Span] = r.Name
	}
	if counts["serve.apply_event"] != 1 {
		t.Errorf("serve.apply_event spans = %d, want 1", counts["serve.apply_event"])
	}
	if counts["serve.publish"] != len(s.shards) {
		t.Errorf("serve.publish spans = %d, want %d", counts["serve.publish"], len(s.shards))
	}
	if counts["atlas.apply_event"] != len(s.shards) {
		t.Errorf("atlas.apply_event spans = %d, want %d", counts["atlas.apply_event"], len(s.shards))
	}
	if counts["serve.read"] == 0 {
		t.Error("no serve.read spans recorded")
	}
	// Every atlas root parents back to the serve root span.
	for _, r := range recs {
		if r.Name == "atlas.apply_event" && byID[r.Parent] != "serve.apply_event" {
			t.Errorf("atlas.apply_event parent = %q, want serve.apply_event", byID[r.Parent])
		}
	}

	// Satellite: runtime gauges are registered on the serve registry.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	resp.Body.Close()
	body := sb.String()
	for _, metric := range []string{"stamp_runtime_goroutines", "stamp_runtime_heap_bytes",
		"stamp_runtime_gc_pause_seconds_count", "stamp_serve_flight_dumps_total"} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}
