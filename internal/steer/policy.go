package steer

// Policy defaults. The comfort/degrade split gives the monitor
// hysteresis (a source between the two thresholds neither accumulates
// nor sheds suspicion), Consecutive debounces one-tick blips, and the
// cooldown bounds flap rate when congestion oscillates faster than the
// policy can usefully react.
const (
	DefaultDegradeMs     = 20.0
	DefaultComfortMs     = 8.0
	DefaultAbsMaxMs      = 250.0
	DefaultConsecutive   = 3
	DefaultCooldownTicks = 40
)

// Config tunes the steering policy.
type Config struct {
	// DegradeMs: a color is unhealthy for a source when its effective
	// latency exceeds the source's static baseline by this much.
	DegradeMs float64 `json:"degrade_ms"`
	// ComfortMs: a color is comfortable (suspicion resets) when within
	// this margin of baseline. Between ComfortMs and DegradeMs the
	// consecutive-unhealthy count holds.
	ComfortMs float64 `json:"comfort_ms"`
	// AbsMaxMs: above this absolute effective latency a color is
	// unhealthy regardless of baseline.
	AbsMaxMs float64 `json:"abs_max_ms"`
	// Consecutive unhealthy ticks required before a switch.
	Consecutive int `json:"consecutive"`
	// CooldownTicks a source must wait after switching before it may
	// switch again. Zero selects the default; negative disables the
	// cooldown entirely (hair-trigger mode, for experiments) and is
	// preserved by normalization so re-normalizing stays idempotent.
	CooldownTicks int `json:"cooldown_ticks"`
	// TimeoutMs is the effective latency of an unreachable path
	// (default traffic.DefaultTimeoutMs, set by withDefaults).
	TimeoutMs float64 `json:"timeout_ms"`
}

// DefaultConfig returns the default policy tuning.
func DefaultConfig() Config {
	return Config{
		DegradeMs:     DefaultDegradeMs,
		ComfortMs:     DefaultComfortMs,
		AbsMaxMs:      DefaultAbsMaxMs,
		Consecutive:   DefaultConsecutive,
		CooldownTicks: DefaultCooldownTicks,
		TimeoutMs:     defaultTimeoutMs,
	}
}

// defaultTimeoutMs mirrors traffic.DefaultTimeoutMs, which the steer
// package does not import; a test pins the two equal.
const defaultTimeoutMs = 400.0

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.DegradeMs <= 0 {
		c.DegradeMs = d.DegradeMs
	}
	if c.ComfortMs <= 0 {
		c.ComfortMs = d.ComfortMs
	}
	if c.AbsMaxMs <= 0 {
		c.AbsMaxMs = d.AbsMaxMs
	}
	if c.Consecutive <= 0 {
		c.Consecutive = d.Consecutive
	}
	if c.CooldownTicks == 0 {
		c.CooldownTicks = d.CooldownTicks
	}
	if c.TimeoutMs <= 0 {
		c.TimeoutMs = d.TimeoutMs
	}
	return c
}

// Policy is the per-source color-steering state machine, the lagbuster
// recipe applied to STAMP's two planes: each source remembers a static
// per-color baseline from the healthy converged network, counts
// consecutive unhealthy samples on its current color, and switches to
// the other color only after Consecutive bad ticks — then refuses to
// switch again for CooldownTicks. When both colors are unhealthy it
// steers to the least bad. It implements traffic.Steerer; Step does no
// heap allocation.
type Policy struct {
	cfg Config

	colors   []uint8      // current assignment, returned by Colors
	base     [2][]float32 // static effective-latency baseline per color
	consec   []int32      // consecutive unhealthy ticks on current color
	cooldown []int32      // ticks until the source may switch again

	switches  int64 // total color switches
	unhealthy int64 // total unhealthy (source, tick) samples
	ticks     int64 // Step calls

	// OnSwitch, when non-nil, observes every switch: source AS, the
	// color switched to, and the effective latencies (current color,
	// other color) that triggered it. Used by serve's steer-flap flight
	// recorder. Must not retain the policy's slices.
	OnSwitch func(src int, to uint8, curMs, otherMs float64)
}

// NewPolicy builds a policy with zero-value fields of cfg defaulted.
func NewPolicy(cfg Config) *Policy {
	return &Policy{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) tuning.
func (p *Policy) Config() Config { return p.cfg }

// SwitchCount is the total number of color switches so far.
func (p *Policy) SwitchCount() int64 { return p.switches }

// UnhealthyCount is the total number of unhealthy per-source samples.
func (p *Policy) UnhealthyCount() int64 { return p.unhealthy }

// eff is the effective latency of one forced-path sample: the path
// latency plus timeout-weighted gray loss, or the full timeout when the
// color does not reach the destination (lat < 0, traffic.NoLat).
func (p *Policy) eff(lat, lossP float32) float64 {
	if lat < 0 {
		return p.cfg.TimeoutMs
	}
	return float64(lat) + float64(lossP)*p.cfg.TimeoutMs
}

// Init implements traffic.Steerer: the healthy converged per-color
// measurements become the static baselines and pref becomes the
// starting assignment.
func (p *Policy) Init(redLat, redLossP, blueLat, blueLossP []float32, pref []uint8) {
	n := len(pref)
	p.colors = append(p.colors[:0], pref...)
	p.base[0] = sized(p.base[0], n)
	p.base[1] = sized(p.base[1], n)
	p.consec = sized(p.consec, n)
	p.cooldown = sized(p.cooldown, n)
	for v := 0; v < n; v++ {
		p.base[0][v] = float32(p.eff(redLat[v], redLossP[v]))
		p.base[1][v] = float32(p.eff(blueLat[v], blueLossP[v]))
		p.consec[v] = 0
		p.cooldown[v] = 0
	}
	p.switches, p.unhealthy, p.ticks = 0, 0, 0
}

// sized returns s resized to n, reusing capacity.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Colors implements traffic.Steerer.
func (p *Policy) Colors() []uint8 { return p.colors }

// Step implements traffic.Steerer: one sampling tick of forced
// per-color measurements. Transitions per source:
//
//	comfortable            → stay, suspicion resets
//	suspicious (gray zone)  → stay, suspicion holds
//	unhealthy, consec < N   → stay, suspicion grows
//	unhealthy, consec ≥ N   → switch (cooldown starts), unless cooling
//	                          down, or the other color is even worse —
//	                          least-bad keeps the current color only
//	                          when it is strictly no worse
func (p *Policy) Step(redLat, redLossP, blueLat, blueLossP []float32) {
	cfg := p.cfg
	var switched, bad int64
	for v := range p.colors {
		if p.cooldown[v] > 0 {
			p.cooldown[v]--
		}
		c := p.colors[v]
		var cur, other float64
		if c == 0 {
			cur = p.eff(redLat[v], redLossP[v])
			other = p.eff(blueLat[v], blueLossP[v])
		} else {
			cur = p.eff(blueLat[v], blueLossP[v])
			other = p.eff(redLat[v], redLossP[v])
		}
		base := float64(p.base[c][v])
		switch {
		case cur > base+cfg.DegradeMs || cur > cfg.AbsMaxMs:
			bad++
			p.consec[v]++
			if p.consec[v] < int32(cfg.Consecutive) || p.cooldown[v] > 0 {
				break
			}
			// The other color only helps if it is strictly better right
			// now — when everything is on fire, steer to the least bad,
			// never to an equal or worse plane.
			if other >= cur {
				break
			}
			p.colors[v] = 1 - c
			p.consec[v] = 0
			p.cooldown[v] = int32(cfg.CooldownTicks)
			switched++
			if p.OnSwitch != nil {
				p.OnSwitch(v, 1-c, cur, other)
			}
		case cur < base+cfg.ComfortMs:
			p.consec[v] = 0
		}
		// Gray zone between comfort and degrade: hold the count.
	}
	p.switches += switched
	p.unhealthy += bad
	p.ticks++
}
