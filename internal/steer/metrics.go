package steer

import (
	"time"

	"stamp/internal/obs"
)

// Metrics is the steering subsystem's obs instrumentation. Counters are
// atomic, so one Metrics may be shared across concurrently stepping
// policies.
type Metrics struct {
	// Switches counts color switches (stamp_steer_switches_total).
	Switches *obs.Counter
	// Unhealthy counts unhealthy per-source samples
	// (stamp_steer_unhealthy_total).
	Unhealthy *obs.Counter
	// Decision observes the wall time of one Policy.Step batch
	// (stamp_steer_decision_seconds).
	Decision *obs.Histogram
}

// decisionBounds spans sub-microsecond toy graphs to multi-millisecond
// internet-scale batches.
var decisionBounds = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2,
}

// NewMetrics registers the steering metrics on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Switches:  r.Counter("stamp_steer_switches_total", "Color switches made by the steering policy."),
		Unhealthy: r.Counter("stamp_steer_unhealthy_total", "Unhealthy (source, tick) samples seen by the steering policy."),
		Decision:  r.Histogram("stamp_steer_decision_seconds", "Wall time of one steering decision batch (Policy.Step).", decisionBounds),
	}
}

// observe folds one Step's outcome in.
func (m *Metrics) observe(switches, unhealthy int64, d time.Duration) {
	if switches > 0 {
		m.Switches.Add(switches)
	}
	if unhealthy > 0 {
		m.Unhealthy.Add(unhealthy)
	}
	m.Decision.Observe(d.Seconds())
}
