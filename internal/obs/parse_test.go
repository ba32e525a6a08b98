package obs

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestParseTextTable drives ParseText through the exposition corners
// the round-trip golden never exercises: escaped label values, ±Inf and
// NaN values, +Inf bucket bounds, tab separators, trailing whitespace,
// empty label sets, and timestamp suffixes.
func TestParseTextTable(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		key   string // sample key to look up
		want  float64
		nan   bool
		count int // expected sample count (0 = 1)
	}{
		{
			name: "plain",
			in:   "stamp_x_total 42\n",
			key:  "stamp_x_total", want: 42,
		},
		{
			name: "escaped-backslash-quote-newline",
			in:   `stamp_x_total{path="a\\b\"c\nd"} 7` + "\n",
			key:  `stamp_x_total{path="a\\b\"c\nd"}`, want: 7,
		},
		{
			name: "plus-inf-value",
			in:   "stamp_x +Inf\n",
			key:  "stamp_x", want: math.Inf(+1),
		},
		{
			name: "minus-inf-value",
			in:   "stamp_x -Inf\n",
			key:  "stamp_x", want: math.Inf(-1),
		},
		{
			name: "nan-value",
			in:   "stamp_x NaN\n",
			key:  "stamp_x", nan: true,
		},
		{
			name: "inf-bucket-bound",
			in:   `stamp_h_bucket{le="+Inf"} 10` + "\n",
			key:  `stamp_h_bucket{le="+Inf"}`, want: 10,
		},
		{
			name: "tab-separator",
			in:   "stamp_x_total\t42\n",
			key:  "stamp_x_total", want: 42,
		},
		{
			name: "tab-after-labels",
			in:   "stamp_x_total{op=\"a\"}\t42\n",
			key:  `stamp_x_total{op="a"}`, want: 42,
		},
		{
			name: "trailing-whitespace",
			in:   "stamp_x_total 42   \t\n",
			key:  "stamp_x_total", want: 42,
		},
		{
			name: "trailing-timestamp",
			in:   "stamp_x_total 42 1700000000000\n",
			key:  "stamp_x_total", want: 42,
		},
		{
			name: "empty-label-set",
			in:   "stamp_x_total{} 5\n",
			key:  "stamp_x_total", want: 5,
		},
		{
			name: "blank-and-comment-lines",
			in:   "\n   \n# HELP stamp_x_total help text\n# TYPE stamp_x_total counter\nstamp_x_total 1\n",
			key:  "stamp_x_total", want: 1,
		},
		{
			name: "scientific-value",
			in:   "stamp_x 2.5e-07\n",
			key:  "stamp_x", want: 2.5e-07,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ParseText(strings.NewReader(tc.in))
			if err != nil {
				t.Fatalf("ParseText: %v", err)
			}
			wantCount := tc.count
			if wantCount == 0 {
				wantCount = 1
			}
			if len(sc.Samples) != wantCount {
				t.Fatalf("got %d samples, want %d", len(sc.Samples), wantCount)
			}
			v, ok := sc.byKey[tc.key]
			if !ok {
				keys := make([]string, 0, len(sc.byKey))
				for k := range sc.byKey {
					keys = append(keys, k)
				}
				t.Fatalf("key %q not found; have %q", tc.key, keys)
			}
			if tc.nan {
				if !math.IsNaN(v) {
					t.Fatalf("got %v, want NaN", v)
				}
			} else if v != tc.want {
				t.Fatalf("got %v, want %v", v, tc.want)
			}
		})
	}
}

// TestParseTextRejects pins the malformed inputs that must error rather
// than silently misparse.
func TestParseTextRejects(t *testing.T) {
	for _, in := range []string{
		"stamp_x_total\n",                // no value
		"stamp_x_total{op=\"a\" 1\n",     // unterminated label set
		"stamp_x_total{op=\"a\\q\"} 1\n", // unknown escape
		"stamp_x_total{op=a} 1\n",        // unquoted label value
		"stamp_x_total{9bad=\"a\"} 1\n",  // bad label name
		"9bad_name 1\n",                  // bad metric name
		"stamp_x_total notanumber\n",     // bad value
		"stamp_x_total{op=\"a\"\n",       // unterminated label value line
		"stamp_x_total{op} 1\n",          // missing =
	} {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", in)
		}
	}
}

// TestParseWriteRoundTripEscapes round-trips a registry whose label
// values need every escape WriteText knows.
func TestParseWriteRoundTripEscapes(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("stamp_esc_total", "escape torture", "path")
	hairy := "a\\b\"c\nd"
	vec.With(hairy).Add(3)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, b.String())
	}
	v, ok := sc.Value("stamp_esc_total", "path", hairy)
	if !ok || v != 3 {
		t.Fatalf("Value = %v, %v; want 3, true", v, ok)
	}
}

// TestRegisterRuntime pins the runtime collector: the gauges refresh on
// scrape, GC cycles are counted once each, and a second scrape stays
// monotonic.
func TestRegisterRuntime(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)

	scrape := func() *Scrape {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		sc, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	s1 := scrape()
	if v, ok := s1.Value("stamp_runtime_goroutines"); !ok || v < 1 {
		t.Fatalf("goroutines = %v, %v; want >= 1", v, ok)
	}
	if v, ok := s1.Value("stamp_runtime_heap_bytes"); !ok || v <= 0 {
		t.Fatalf("heap_bytes = %v, %v; want > 0", v, ok)
	}
	if _, ok := s1.Value("stamp_runtime_num_gc_total"); !ok {
		t.Fatal("num_gc_total missing")
	}
	if _, ok := s1.Value("stamp_runtime_gc_pause_seconds_count"); !ok {
		t.Fatal("gc_pause_seconds histogram missing")
	}

	// Force GC churn and verify the counter advances and nothing in the
	// registry goes backwards.
	for i := 0; i < 3; i++ {
		ballast := make([]byte, 1<<20)
		_ = ballast
	}
	s2 := scrape()
	if bad := s1.NonMonotonic(s2); bad != nil {
		t.Fatalf("runtime metrics went backwards: %v", bad)
	}
	g1, _ := s1.Value("stamp_runtime_num_gc_total")
	p1, _ := s1.Value("stamp_runtime_gc_pause_seconds_count")
	s3 := scrape()
	g3, _ := s3.Value("stamp_runtime_num_gc_total")
	p3, _ := s3.Value("stamp_runtime_gc_pause_seconds_count")
	if g3 > g1 && p3 <= p1 {
		t.Fatalf("GC advanced (%v -> %v) but no pauses observed (%v -> %v)", g1, g3, p1, p3)
	}
}

// TestEventLogOldestSeq pins the eviction arithmetic the SSE gap marker
// depends on.
func TestEventLogOldestSeq(t *testing.T) {
	l := NewEventLog(3)
	if got := l.OldestSeq(); got != 0 {
		t.Fatalf("empty OldestSeq = %d, want 0", got)
	}
	l.Append("a", "", nil)
	l.Append("b", "", nil)
	if got := l.OldestSeq(); got != 1 {
		t.Fatalf("unwrapped OldestSeq = %d, want 1", got)
	}
	l.Append("c", "", nil)
	l.Append("d", "", nil) // evicts seq 1
	l.Append("e", "", nil) // evicts seq 2
	if got := l.OldestSeq(); got != 3 {
		t.Fatalf("wrapped OldestSeq = %d, want 3", got)
	}
	if evs := l.Since(0); evs[0].Seq != 3 {
		t.Fatalf("Since(0) starts at %d, want 3", evs[0].Seq)
	}
}

// TestRuntimeGCPausesObservedOnce holds the pause histogram to the GC
// counter: with fewer than 256 cycles between scrapes (the runtime's
// pause ring), every cycle adds exactly one observation — none missed,
// none counted twice.
func TestRuntimeGCPausesObservedOnce(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	counts := func() (gcs, pauses float64) {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		sc, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		gcs, _ = sc.Value("stamp_runtime_num_gc_total")
		pauses, _ = sc.Value("stamp_runtime_gc_pause_seconds_count")
		return gcs, pauses
	}
	g0, p0 := counts()
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	g1, p1 := counts()
	g2, p2 := counts()
	if g1-g0 < 5 {
		t.Fatalf("num_gc advanced %v over 5 forced cycles", g1-g0)
	}
	if g1-g0 != p1-p0 || g2-g1 != p2-p1 {
		t.Fatalf("GC cycles %v, %v but pauses observed %v, %v", g1-g0, g2-g1, p1-p0, p2-p1)
	}
}

// OldestSeq returns the sequence number of the oldest event still
// retained in the ring (0 if empty) — what a resuming streamer is
// actually offered when its cursor has been evicted.
func (l *EventLog) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return min(l.ring.Evicted()+1, l.ring.Last())
}
