package serve

import (
	"fmt"
	"sync"
	"time"

	"stamp/internal/obs"
)

// steerFlap watches per-source color-switch reports from a steering
// agent (internal/steer's policy, running beside or in front of this
// server) and turns a flapping source — more than steerFlapK switches
// inside the sliding steerFlapWindow — into a flight-recorder dump. A
// healthy policy switches rarely (its cooldown bounds the rate by
// construction), so a burst of switches from one source is exactly the
// kind of anomaly the flight recorder exists for: something is
// oscillating faster than the damping, and the traces plus the reported
// latency samples say which plane looked bad when.
type steerFlap struct {
	flight *flightRecorder
	events *obs.EventLog
	k      int           // steerFlapK: switches strictly above this flag a flap
	window time.Duration // steerFlapWindow: the switches' sliding window
	now    func() time.Time

	switches *obs.Counter
	flaps    *obs.Counter

	mu      sync.Mutex
	sources map[int64]*flapTrack
}

// flapTrack is one source's recent switch history: parallel slices of
// switch times and the latency pair (current plane, other plane)
// reported at each switch, pruned to the window on every note.
type flapTrack struct {
	times []time.Time
	lats  []float64 // cur, other interleaved per switch
}

const (
	steerFlapK           = 4
	steerFlapWindow      = 10 * time.Second
	steerFlapKeepSamples = 16 // latency samples carried into dump metadata
)

func newSteerFlap(flight *flightRecorder, events *obs.EventLog, reg *obs.Registry) *steerFlap {
	return &steerFlap{
		flight: flight,
		events: events,
		k:      steerFlapK,
		window: steerFlapWindow,
		now:    time.Now,
		switches: reg.Counter("stamp_serve_steer_switches_total",
			"Color-switch reports received from steering agents."),
		flaps: reg.Counter("stamp_serve_steer_flaps_total",
			"Sources that exceeded the steer-flap threshold (switches > K in window)."),
		sources: map[int64]*flapTrack{},
	}
}

// note records one color switch for a source and returns how many
// switches the window now holds and whether that crossed the flap
// threshold. Crossing the threshold triggers a "steer-flap" flight dump
// whose metadata names the source and carries its recent latency
// samples.
func (sf *steerFlap) note(source int64, to string, curMs, otherMs float64) (count int, flapped bool) {
	sf.switches.Inc()
	now := sf.now()
	sf.mu.Lock()
	tr := sf.sources[source]
	if tr == nil {
		tr = &flapTrack{}
		sf.sources[source] = tr
	}
	// Prune everything that slid out of the window, then append.
	cut := 0
	for cut < len(tr.times) && now.Sub(tr.times[cut]) > sf.window {
		cut++
	}
	tr.times = append(tr.times[cut:], now)
	tr.lats = append(tr.lats[2*cut:], curMs, otherMs)
	count = len(tr.times)
	flapped = count > sf.k
	var samples []float64
	if flapped {
		samples = tr.lats
		if len(samples) > steerFlapKeepSamples {
			samples = samples[len(samples)-steerFlapKeepSamples:]
		}
		samples = append([]float64(nil), samples...)
	}
	sf.mu.Unlock()

	if !flapped {
		return count, false
	}
	sf.flaps.Inc()
	detail := fmt.Sprintf("source %d switched %d times in %s (threshold %d), latest to %s (%.1fms vs %.1fms)",
		source, count, sf.window, sf.k, to, curMs, otherMs)
	sf.flight.triggerMeta("steer-flap", detail, map[string]any{
		"steer_flap_source":     source,
		"steer_flap_switches":   count,
		"steer_flap_window_ms":  sf.window.Milliseconds(),
		"steer_flap_latency_ms": samples,
	})
	if sf.events != nil {
		sf.events.Append("steer-flap", detail, nil)
	}
	return count, true
}
