package traffic

import (
	"fmt"
	"time"

	"stamp/internal/metrics"
	"stamp/internal/topology"
)

// Curve is the time-resolved data-plane outcome of one run: per tick,
// how many packets were lost and delivered and how stretched the
// delivered paths were, plus the final converged deliverability. Ticks
// count from the first scenario event; tick i (1-based) samples the
// forwarding state at i×Tick and lands in series bucket i-1.
type Curve struct {
	Proto Protocol      `json:"protocol"`
	Flows int           `json:"flows_per_source"`
	Tick  time.Duration `json:"tick"`
	Ticks int           `json:"ticks"`

	// Lost and Delivered hold one observation per tick: the number of
	// packets (non-delivered/delivered sources × Flows) at that tick.
	Lost      *metrics.TimeSeries `json:"lost"`
	Delivered *metrics.TimeSeries `json:"delivered"`
	// Stretch holds one observation per tick: the mean ratio of delivered
	// hop counts to the pre-event baseline (ticks with no qualifying
	// source contribute nothing).
	Stretch *metrics.TimeSeries `json:"stretch"`

	// LostPacketTicks is the loss integral: packets lost summed over all
	// sampled ticks.
	LostPacketTicks int64 `json:"lost_packet_ticks"`
	// TransientLostPacketTicks restricts the loss integral to sources
	// that are delivered at the converged fixpoint — the paper's §6.2
	// accounting, which separates convergence-caused loss from sources
	// the event permanently cut off.
	TransientLostPacketTicks int64 `json:"transient_lost_packet_ticks"`
	// EverAffected counts sources that were non-delivered at one or more
	// sampled ticks; TransientAffected restricts that to sources fine
	// once converged.
	EverAffected      int `json:"ever_affected"`
	TransientAffected int `json:"transient_affected"`

	// UserLatency (runs with a link-cost model only) holds one
	// observation per tick: the mean user-perceived latency over all
	// sources, where a delivered source contributes its path latency
	// plus its gray-loss probability × TimeoutMs, and an unreachable
	// source contributes the full TimeoutMs — the end-user view, in
	// which a lost packet is not free but a retransmit timeout.
	UserLatency *metrics.TimeSeries `json:"user_latency_ms,omitempty"`
	// UserLatencyMeanMs is the time-mean of UserLatency over all ticks.
	UserLatencyMeanMs float64 `json:"user_latency_mean_ms,omitempty"`
	// TimeoutMs is the loss penalty used for UserLatency.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
	// SteerSwitches counts color switches the steering policy made
	// during the run (STAMP-steer only).
	SteerSwitches int64 `json:"steer_switches,omitempty"`

	// Final is the converged data plane after the scenario (the parity
	// surface for sim-vs-emu differential validation).
	Final Walk `json:"-"`

	lostTicks  []int32 // per source: ticks at which it was not delivered
	userLatSum float64 // sum of per-tick mean user latencies

	// The last fresh tick's aggregates, which an idle tick re-emits, and
	// the sources it lost. owed counts the idle ticks since, whose losses
	// are not yet in lostTicks.
	last     tickAggregates
	lastLost []int32
	owed     int32
}

// tickAggregates is what one sampled tick contributes to the series.
type tickAggregates struct {
	lost, delivered int
	stretch         float64
	stretchOK       bool
	userLat         float64
}

// newCurve allocates the curve and its series for a run.
func newCurve(proto Protocol, flows, ticks int, tick time.Duration, n int) (*Curve, error) {
	c := &Curve{
		Proto:     proto,
		Flows:     flows,
		Tick:      tick,
		Ticks:     ticks,
		lostTicks: make([]int32, n),
	}
	var err error
	if c.Lost, err = metrics.NewTimeSeries(tick.Seconds(), ticks); err != nil {
		return nil, err
	}
	if c.Delivered, err = metrics.NewTimeSeries(tick.Seconds(), ticks); err != nil {
		return nil, err
	}
	if c.Stretch, err = metrics.NewTimeSeries(tick.Seconds(), ticks); err != nil {
		return nil, err
	}
	return c, nil
}

// enableUserLat attaches the user-latency series (runs with a link-cost
// model). timeoutMs is the perceived cost of a lost packet.
func (c *Curve) enableUserLat(timeoutMs float64) error {
	c.TimeoutMs = timeoutMs
	var err error
	c.UserLatency, err = metrics.NewTimeSeries(c.Tick.Seconds(), c.Ticks)
	return err
}

// perceived is one source's user-perceived latency for a sampled walk:
// path latency plus timeout-weighted loss probability, or the full
// timeout when unreachable.
func (c *Curve) perceived(w *Walk, v int) float64 {
	if w.Status[v] != Delivered || w.LatMs[v] < 0 {
		return c.TimeoutMs
	}
	return float64(w.LatMs[v]) + float64(w.LossP[v])*c.TimeoutMs
}

// observe folds one sampled tick (1-based) into the curve. baseline is
// the pre-event classification used for stretch. fresh is false when w
// is unchanged since the previous call: the tick then re-emits that
// call's aggregates instead of recomputing them from the same walk, and
// its per-source losses are owed until the next fresh tick or finish.
func (c *Curve) observe(tickIdx int, w, baseline *Walk, fresh bool) {
	if fresh {
		c.aggregate(w, baseline)
	} else {
		c.owed++
	}
	a := &c.last
	// Observation time: the middle of bucket tickIdx-1, robust against
	// float rounding at bucket edges.
	at := (float64(tickIdx) - 0.5) * c.Tick.Seconds()
	c.Lost.Observe(at, float64(a.lost))
	c.Delivered.Observe(at, float64(a.delivered))
	if a.stretchOK {
		c.Stretch.Observe(at, a.stretch)
	}
	c.LostPacketTicks += int64(a.lost)
	if c.UserLatency != nil && len(w.Status) > 0 {
		c.UserLatency.Observe(at, a.userLat)
		c.userLatSum += a.userLat
	}
}

// aggregate computes a fresh tick's aggregates from its walk into
// c.last, after settling the losses owed for the previous walk.
func (c *Curve) aggregate(w, baseline *Walk) {
	c.settle()
	c.lastLost = c.lastLost[:0]
	n := len(w.Status)
	delivered := 0
	stretchSum, stretchN := 0.0, 0
	for v := 0; v < n; v++ {
		if w.Status[v] != Delivered {
			c.lostTicks[v]++
			c.lastLost = append(c.lastLost, int32(v))
			continue
		}
		delivered++
		if baseline.Status[v] == Delivered && baseline.Hops[v] > 0 {
			stretchSum += float64(w.Hops[v]) / float64(baseline.Hops[v])
			stretchN++
		}
	}
	c.last = tickAggregates{lost: (n - delivered) * c.Flows, delivered: delivered * c.Flows}
	if stretchN > 0 {
		c.last.stretch, c.last.stretchOK = stretchSum/float64(stretchN), true
	}
	if c.UserLatency != nil && n > 0 {
		sum := 0.0
		for v := 0; v < n; v++ {
			sum += c.perceived(w, v)
		}
		c.last.userLat = sum / float64(n)
	}
}

// settle adds the idle ticks owed since the last fresh tick to the
// per-source loss counts of the sources that tick lost.
func (c *Curve) settle() {
	if c.owed == 0 {
		return
	}
	for _, v := range c.lastLost {
		c.lostTicks[v] += c.owed
	}
	c.owed = 0
}

// finish derives the affected counts and the transient loss integral
// once all ticks are in and the final deliverability is known.
func (c *Curve) finish() {
	c.settle()
	c.lastLost = nil
	if c.UserLatency != nil && c.Ticks > 0 {
		c.UserLatencyMeanMs = c.userLatSum / float64(c.Ticks)
	}
	c.EverAffected, c.TransientAffected, c.TransientLostPacketTicks = 0, 0, 0
	for v, lt := range c.lostTicks {
		if lt == 0 {
			continue
		}
		c.EverAffected++
		if v < len(c.Final.Status) && c.Final.Status[v] == Delivered {
			c.TransientAffected++
			c.TransientLostPacketTicks += int64(lt) * int64(c.Flows)
		}
	}
}

// Divergence is one sim-vs-live data-plane mismatch: a source whose
// packets end up with a different fate (or a different path length) on
// the two backends.
type Divergence struct {
	AS       topology.ASN `json:"as"`
	Sim      Status       `json:"-"`
	Live     Status       `json:"-"`
	SimHops  int32        `json:"sim_hops"`
	LiveHops int32        `json:"live_hops"`
}

// String renders the divergence for logs.
func (d Divergence) String() string {
	return fmt.Sprintf("AS%d: sim=%v/%d hops, live=%v/%d hops", d.AS, d.Sim, d.SimHops, d.Live, d.LiveHops)
}

// MarshalJSON spells the statuses by name.
func (d Divergence) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"as":%d,"sim":%q,"sim_hops":%d,"live":%q,"live_hops":%d}`,
		d.AS, d.Sim, d.SimHops, d.Live, d.LiveHops)), nil
}

// DiffFinal compares the converged deliverability of a simulator curve
// (c) against a live curve (o): per source, status and hop count must
// match. Zero divergences is the transient-parity pass condition —
// convergence *timing* differs between virtual and wall-clock time, but
// with the deterministic reference configuration both worlds must settle
// every source into the same data-plane fate over the same-length path.
func (c *Curve) DiffFinal(o *Curve) []Divergence {
	var out []Divergence
	for v := range c.Final.Status {
		if v >= len(o.Final.Status) {
			break
		}
		if c.Final.Status[v] != o.Final.Status[v] || c.Final.Hops[v] != o.Final.Hops[v] {
			out = append(out, Divergence{
				AS:  topology.ASN(v),
				Sim: c.Final.Status[v], SimHops: c.Final.Hops[v],
				Live: o.Final.Status[v], LiveHops: o.Final.Hops[v],
			})
		}
	}
	return out
}
