package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with deterministic values covering
// every exposition feature: unlabeled counter/gauge, a labeled counter
// vec whose values need escaping, and a histogram with known
// observations.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("stamp_test_events_total", "Events applied.")
	c.Add(42)
	g := r.Gauge("stamp_test_inflight", "In-flight requests.")
	g.Set(7)
	v := r.CounterVec("stamp_test_loss_total", "Loss by plane.", "plane", "note")
	v.With("red", "plain").Add(3)
	v.With("blue", "esc\\ape\"quote\nnewline").Add(5)
	h := r.Histogram("stamp_test_rounds", "Rounds per event.", []float64{1, 2, 4})
	for _, obs := range []float64{0, 1, 1, 2, 3, 9} {
		h.Observe(obs)
	}
	return r
}

func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := goldenRegistry()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name  string
		pairs []string
		want  float64
	}{
		{"stamp_test_events_total", nil, 42},
		{"stamp_test_inflight", nil, 7},
		{"stamp_test_loss_total", []string{"plane", "red", "note", "plain"}, 3},
		{"stamp_test_loss_total", []string{"plane", "blue", "note", "esc\\ape\"quote\nnewline"}, 5},
		{"stamp_test_rounds_bucket", []string{"le", "1"}, 3},
		{"stamp_test_rounds_bucket", []string{"le", "2"}, 4},
		{"stamp_test_rounds_bucket", []string{"le", "4"}, 5},
		{"stamp_test_rounds_bucket", []string{"le", "+Inf"}, 6},
		{"stamp_test_rounds_count", nil, 6},
		{"stamp_test_rounds_sum", nil, 16},
	}
	for _, c := range checks {
		got, ok := sc.Value(c.name, c.pairs...)
		if !ok {
			t.Errorf("%s%v: missing from parsed scrape", c.name, c.pairs)
			continue
		}
		if got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.pairs, got, c.want)
		}
	}
	if got := sc.Types["stamp_test_rounds"]; got != "histogram" {
		t.Errorf("TYPE of stamp_test_rounds = %q, want histogram", got)
	}
	if got := sc.Types["stamp_test_events_total"]; got != "counter" {
		t.Errorf("TYPE of stamp_test_events_total = %q, want counter", got)
	}
}

func TestHistogramCumulativity(t *testing.T) {
	// Bucket lines in the exposition must be non-decreasing in le order
	// and end at _count.
	r := goldenRegistry()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, le := range []string{"1", "2", "4", "+Inf"} {
		v, ok := sc.Value("stamp_test_rounds_bucket", "le", le)
		if !ok {
			t.Fatalf("missing bucket le=%s", le)
		}
		if v < prev {
			t.Errorf("bucket le=%s value %v < previous %v: not cumulative", le, v, prev)
		}
		prev = v
	}
	count, _ := sc.Value("stamp_test_rounds_count")
	if prev != count {
		t.Errorf("+Inf bucket %v != _count %v", prev, count)
	}
}

func TestMonotonicityCheck(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("stamp_mono_total", "c")
	g := r.Gauge("stamp_mono_gauge", "g")
	h := r.Histogram("stamp_mono_hist", "h", []float64{1})
	c.Add(5)
	g.Set(10)
	h.Observe(0.5)
	first := scrape(t, r)
	c.Inc()
	g.Set(3) // gauges may go down
	h.Observe(2)
	second := scrape(t, r)
	if bad := first.NonMonotonic(second); len(bad) != 0 {
		t.Errorf("unexpected non-monotonic series: %v", bad)
	}
	// A decreasing counter between scrapes must be flagged.
	third := scrape(t, r)
	third.byKey["stamp_mono_total"] = 1
	if bad := second.NonMonotonic(third); len(bad) != 1 || bad[0] != "stamp_mono_total" {
		t.Errorf("NonMonotonic = %v, want [stamp_mono_total]", bad)
	}
}

func scrape(t *testing.T, r *Registry) *Scrape {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"no_value_here",
		"bad{l=unquoted} 1",
		"bad{l=\"open 1",
		"bad{l=\"x\\q\"} 1",
		"9leading 1",
		"ok{l=\"v\"} notanumber",
	} {
		if _, err := ParseText(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("ParseText(%q): want error, got nil", in)
		}
	}
}

// TestMetricOpsAllocs pins the hot-loop contract: mutating a resolved
// metric handle allocates nothing. The atlas/runner instrumentation
// relies on this to keep ApplyEvent at 0 allocs/op.
func TestMetricOpsAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("stamp_allocs_total", "c")
	g := r.Gauge("stamp_allocs_gauge", "g")
	h := r.Histogram("stamp_allocs_hist", "h", LatencyBuckets())
	child := r.CounterVec("stamp_allocs_vec_total", "v", "plane").With("red")
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(4)
		g.Add(-1)
		h.Observe(0.01)
		child.Inc()
	}); n != 0 {
		t.Fatalf("metric mutation allocates %.1f allocs/op, want 0", n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stamp_q", "q", []float64{10, 20, 30})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 30))
	}
	p50 := h.Quantile(0.5)
	if p50 < 5 || p50 > 25 {
		t.Errorf("p50 = %v, want within buckets covering the median", p50)
	}
	if q := h.Quantile(1); q > 30 {
		t.Errorf("p100 = %v, want <= highest bound", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.99); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestCounterDropsNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5 (negative add dropped)", got)
	}
}

func TestRegistryPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"duplicate": func() {
			r := NewRegistry()
			r.Counter("stamp_dup_total", "a")
			r.Counter("stamp_dup_total", "b")
		},
		"bad name":     func() { NewRegistry().Counter("9bad", "x") },
		"le label":     func() { NewRegistry().CounterVec("stamp_x_total", "x", "le") },
		"no buckets":   func() { NewRegistry().Histogram("stamp_h", "x", nil) },
		"descending":   func() { NewRegistry().Histogram("stamp_h", "x", []float64{2, 1}) },
		"label arity":  func() { NewRegistry().CounterVec("stamp_v_total", "x", "a").With("1", "2") },
		"value lookup": func() { (&Scrape{}).Value("x", "odd") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConcurrentMetricsAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("stamp_conc_total", "c")
	h := r.Histogram("stamp_conc_hist", "h", RoundsBuckets())
	v := r.CounterVec("stamp_conc_labeled_total", "l", "shard")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := v.With(string(rune('a' + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i % 64))
				g.Inc()
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(&buf); err != nil {
			t.Fatalf("scrape %d unparseable: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if c.Value() == 0 {
		t.Error("counter never incremented")
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(4)
	l.now = func() int64 { return 123 }
	for i := 0; i < 6; i++ {
		l.Append("k", "d", nil)
	}
	if got := l.LastSeq(); got != 6 {
		t.Fatalf("LastSeq = %d, want 6", got)
	}
	evs := l.Since(0)
	if len(evs) != 4 {
		t.Fatalf("Since(0) returned %d events, want 4 (ring capacity)", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(3 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
		if ev.UnixNs != 123 {
			t.Errorf("event %d UnixNs = %d, want injected 123", i, ev.UnixNs)
		}
	}
	if evs := l.Since(5); len(evs) != 1 || evs[0].Seq != 6 {
		t.Errorf("Since(5) = %v, want just seq 6", evs)
	}
	if evs := l.Since(6); evs != nil {
		t.Errorf("Since(6) = %v, want nil", evs)
	}
}

// TestEventLogEvicted pins OldestSeq and Evicted through the empty,
// partially-filled, and wrapped phases of the ring: before wrap the
// oldest retained event is seq 1 and nothing is evicted; once the ring
// wraps, OldestSeq tracks last-cap+1 and Evicted counts the dropped
// prefix exactly.
func TestEventLogEvicted(t *testing.T) {
	l := NewEventLog(4)
	if got := l.OldestSeq(); got != 0 {
		t.Fatalf("empty OldestSeq = %d, want 0", got)
	}
	if got := l.Evicted(); got != 0 {
		t.Fatalf("empty Evicted = %d, want 0", got)
	}
	for i := 1; i <= 10; i++ {
		l.Append("k", "d", nil)
		wantOldest, wantEvicted := uint64(1), uint64(0)
		if i > 4 {
			wantOldest = uint64(i - 4 + 1)
			wantEvicted = uint64(i - 4)
		}
		if got := l.OldestSeq(); got != wantOldest {
			t.Fatalf("after %d appends OldestSeq = %d, want %d", i, got, wantOldest)
		}
		if got := l.Evicted(); got != wantEvicted {
			t.Fatalf("after %d appends Evicted = %d, want %d", i, got, wantEvicted)
		}
		// The contract tying the three together: everything ever
		// appended is either retained or evicted.
		if l.LastSeq()-l.Evicted() != uint64(len(l.Since(0))) {
			t.Fatalf("after %d appends: LastSeq %d - Evicted %d != %d retained",
				i, l.LastSeq(), l.Evicted(), len(l.Since(0)))
		}
		// Since at the eviction boundary starts exactly at OldestSeq.
		if evs := l.Since(0); evs[0].Seq != wantOldest {
			t.Fatalf("after %d appends Since(0)[0].Seq = %d, want %d", i, evs[0].Seq, wantOldest)
		}
	}
}

// TestEventLogWaitCancel pins that a Wait blocked on a quiet log
// unblocks with false when its context is cancelled, and that
// cancellation does not disturb other blocked waiters (they still wake
// on the next append).
func TestEventLogWaitCancel(t *testing.T) {
	l := NewEventLog(8)
	l.Append("k", "d", nil)

	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	resA := make(chan bool, 1)
	resB := make(chan bool, 1)
	go func() { resA <- l.Wait(ctxA, l.LastSeq()) }()
	go func() { resB <- l.Wait(ctxB, l.LastSeq()) }()
	time.Sleep(10 * time.Millisecond)
	cancelA()
	select {
	case ok := <-resA:
		if ok {
			t.Fatal("cancelled Wait returned true, want false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Wait did not unblock")
	}
	select {
	case <-resB:
		t.Fatal("waiter B unblocked by A's cancellation, want it to keep waiting")
	case <-time.After(20 * time.Millisecond):
	}
	l.Append("k", "d2", nil)
	select {
	case ok := <-resB:
		if !ok {
			t.Fatal("waiter B returned false after append, want true")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter B did not wake on append")
	}
	// An already-cancelled context with a satisfied predicate still
	// reports the data: new events win over cancellation.
	if !l.Wait(ctxA, 0) {
		t.Fatal("Wait with satisfied predicate returned false on cancelled context")
	}
}

func TestEventLogWait(t *testing.T) {
	l := NewEventLog(8)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan bool, 1)
	go func() { done <- l.Wait(ctx, 0) }()
	time.Sleep(10 * time.Millisecond)
	data, _ := json.Marshal(map[string]int{"rounds": 3})
	l.Append("event-applied", "flap", data)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Wait returned false, want true after append")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not wake on append")
	}
	evs := l.Since(0)
	if len(evs) != 1 || string(evs[0].Data) != `{"rounds":3}` {
		t.Fatalf("unexpected events %+v", evs)
	}
	// Cancelled context unblocks with false.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel2()
	}()
	if l.Wait(ctx2, l.LastSeq()) {
		t.Fatal("Wait returned true with no new event and cancelled context")
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestHistogramSumCAS(t *testing.T) {
	// The float-bits CAS must survive concurrent observers without
	// losing updates (checked exactly: all values integral).
	r := NewRegistry()
	h := r.Histogram("stamp_cas", "c", []float64{1000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := h.Sum(); got != 8000 {
		t.Errorf("Sum = %v, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("Count = %v, want 8000", got)
	}
}

func TestFormatFloat(t *testing.T) {
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatFloat(+Inf) = %q", got)
	}
	if got := formatFloat(0.25); got != "0.25" {
		t.Errorf("formatFloat(0.25) = %q", got)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the covering bucket — the same
// estimate a Prometheus histogram_quantile() would produce. Returns 0
// with no observations; values in the +Inf bucket clamp to the highest
// finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank {
			if c == 0 {
				return ub
			}
			frac := (rank - float64(cum)) / float64(c)
			return lower + (ub-lower)*frac
		}
		cum += c
		lower = ub
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}
