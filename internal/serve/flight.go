package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"stamp/internal/obs"
	"stamp/internal/trace"
)

// flightRecorder turns anomalies into diagnosable artifacts: when a
// read blows the SLO, a counter goes non-monotonic, or an event reroots
// the blue chain, it dumps the tracer's retained spans — the traces of
// the events and reads in flight around the anomaly — as a Chrome
// trace-event JSON with the breach context in its metadata. The latest
// dump is kept in memory (served at GET /debug/flight), every dump is
// written to TraceDir when configured, and dumps are rate-limited so an
// anomaly storm produces a few, not a disk full.
type flightRecorder struct {
	tracer   *trace.Tracer
	dir      string
	events   *obs.EventLog
	registry *obs.Registry
	dumps    *obs.Counter
	logf     func(format string, args ...any)
	// meta supplies the server context (epoch, last event seq) stamped
	// into each dump's metadata.
	meta func() map[string]any

	mu     sync.Mutex
	seq    uint64
	last   time.Time
	latest []byte           // the newest rendered Chrome JSON document
	now    func() time.Time // injectable for rate-limit tests
}

const (
	flightMinGap   = 1 * time.Second // rate limit between dumps
	flightTailSize = 16              // event-log tail entries in metadata
)

func newFlightRecorder(tracer *trace.Tracer, dir string, events *obs.EventLog,
	reg *obs.Registry, logf func(string, ...any), meta func() map[string]any) *flightRecorder {
	return &flightRecorder{
		tracer:   tracer,
		dir:      dir,
		events:   events,
		registry: reg,
		dumps: reg.Counter("stamp_serve_flight_dumps_total",
			"Flight-recorder dumps triggered by SLO breaches, non-monotonic counters, or reroots."),
		logf: logf,
		meta: meta,
		now:  time.Now,
	}
}

// Count returns how many dumps have been taken.
func (f *flightRecorder) Count() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Latest returns the most recent dump's Chrome JSON (nil if none yet).
func (f *flightRecorder) Latest() []byte {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latest
}

// trigger takes a dump unless one was taken within the rate-limit
// window. Safe from any goroutine; the snapshot itself is lock-free
// with respect to writers (shard rings are copied under their own
// mutexes).
func (f *flightRecorder) trigger(reason, detail string) {
	f.triggerMeta(reason, detail, nil)
}

// triggerMeta is trigger with caller-supplied metadata merged into the
// dump (after the server context, so a caller key wins on collision).
func (f *flightRecorder) triggerMeta(reason, detail string, extra map[string]any) {
	if f == nil {
		return
	}
	f.mu.Lock()
	now := f.now()
	if f.seq > 0 && now.Sub(f.last) < flightMinGap {
		f.mu.Unlock()
		return
	}
	f.seq++
	seq := f.seq
	f.last = now
	f.mu.Unlock()

	meta := f.meta()
	for k, v := range extra {
		meta[k] = v
	}
	meta["flight_reason"] = reason
	meta["flight_detail"] = detail
	meta["flight_seq"] = seq
	meta["flight_unix_ns"] = now.UnixNano()
	if f.events != nil {
		// The last few event-log entries give the dump its storyline
		// even when sampling thinned the spans.
		tail := f.events.Since(0)
		if len(tail) > flightTailSize {
			tail = tail[len(tail)-flightTailSize:]
		}
		kinds := make([]string, len(tail))
		for i, ev := range tail {
			kinds[i] = fmt.Sprintf("%d:%s %s", ev.Seq, ev.Kind, ev.Detail)
		}
		meta["event_log_tail"] = kinds
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, f.tracer.Snapshot(), meta); err != nil {
		f.logf("flight: render dump %d: %v", seq, err)
		return
	}
	f.mu.Lock()
	f.latest = buf.Bytes()
	f.mu.Unlock()
	f.dumps.Inc()
	if f.events != nil {
		f.events.Append("flight-dump", fmt.Sprintf("#%d %s: %s", seq, reason, detail), nil)
	}
	f.logf("flight: dump #%d (%s: %s), %d bytes", seq, reason, detail, buf.Len())
	if f.dir != "" {
		path := filepath.Join(f.dir, fmt.Sprintf("flight-%d.json", seq))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			f.logf("flight: write %s: %v", path, err)
		}
	}
}

// monitor self-scrapes the registry and triggers a dump if any counter
// family series went backwards or vanished between scrapes — the "this
// cannot happen" invariant CI asserts from outside, watched from inside
// so a violation is captured with its traces. Runs until stop closes.
func (f *flightRecorder) monitor(stop <-chan struct{}, interval time.Duration) {
	var prev *obs.Scrape
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		prev = f.checkMonotonic(prev)
	}
}

// checkMonotonic performs one scrape-and-compare step, returning the
// scrape for the next comparison (split out for tests).
func (f *flightRecorder) checkMonotonic(prev *obs.Scrape) *obs.Scrape {
	cur, err := f.scrape()
	if err != nil {
		f.logf("flight: self-scrape: %v", err)
		return prev
	}
	if prev != nil {
		if bad := prev.NonMonotonic(cur); len(bad) > 0 {
			f.trigger("non-monotonic", strings.Join(bad, ", "))
		}
	}
	return cur
}

// scrape renders and re-parses the registry — the same payload an
// external Prometheus scrape would see.
func (f *flightRecorder) scrape() (*obs.Scrape, error) {
	var b bytes.Buffer
	if err := f.registry.WriteText(&b); err != nil {
		return nil, err
	}
	return obs.ParseText(&b)
}
