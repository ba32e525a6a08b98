// Package sim provides the discrete-event simulation engine used to
// replicate BGP routing dynamics: a time-ordered event queue, a seeded
// random source, the paper's delay and MRAI timer models, and a network
// layer that delivers messages between AS nodes and injects link/node
// failures.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Params are the timing parameters of the simulated routing system. The
// defaults mirror §6.2 of the paper: processing plus transmission delay
// uniform in [10ms, 20ms], and a per-peer MRAI timer of 30 s scaled by a
// random factor uniform in [0.75, 1.0].
type Params struct {
	// MinDelay and MaxDelay bound the uniform message delay.
	MinDelay, MaxDelay time.Duration
	// MRAIBase is the nominal Minimum Route Advertisement Interval.
	MRAIBase time.Duration
	// MRAIJitterMin and MRAIJitterMax bound the uniform scaling factor
	// applied to MRAIBase per expiry.
	MRAIJitterMin, MRAIJitterMax float64
	// MRAIEnabled turns the MRAI timer off entirely when false (used by
	// ablation benchmarks).
	MRAIEnabled bool
	// SettleDelay is how long a routing process must go without
	// loss-caused best-route changes before its data-plane instability
	// flag (the ET-driven "switch to the other color" signal) clears.
	// Zero disables clearing.
	SettleDelay time.Duration
	// MaxEvents aborts the run if the event count exceeds it, guarding
	// against livelock in buggy protocols. Zero means a generous default.
	MaxEvents int
}

// DefaultParams returns the paper's timing model.
func DefaultParams() Params {
	return Params{
		MinDelay:      10 * time.Millisecond,
		MaxDelay:      20 * time.Millisecond,
		MRAIBase:      30 * time.Second,
		MRAIJitterMin: 0.75,
		MRAIJitterMax: 1.0,
		MRAIEnabled:   true,
		SettleDelay:   35 * time.Second,
	}
}

// Engine is a deterministic discrete-event scheduler. It is not
// goroutine-safe; a simulation runs on a single goroutine. Parallelism
// lives one level up: internal/runner shards independent trials, each
// with its own Engine, across a worker pool.
type Engine struct {
	P Params

	now    time.Duration
	seq    int64
	events queue
	rng    *rand.Rand
	count  int
	// net receives the delivery events Network.Send schedules; an
	// engine drives at most one network.
	net *Network

	// PostEvent, when non-nil, runs after every executed event. The
	// experiment drivers use it to observe the data plane between routing
	// steps.
	PostEvent func()

	cancel context.Context
}

// cancelCheckInterval is how many events the run loops execute between
// cancellation polls: frequent enough that Ctrl-C interrupts a
// long-converging trial within microseconds of real work, rare enough
// that the atomic load in ctx.Err never shows up in profiles.
const cancelCheckInterval = 4096

// SetCancel installs a cancellation context on the engine. Run and
// RunUntil poll it every cancelCheckInterval events and stop with its
// error, so an in-flight simulation is interrupted promptly when the
// caller (e.g. internal/runner under Ctrl-C) cancels. nil removes the
// check.
func (e *Engine) SetCancel(ctx context.Context) { e.cancel = ctx }

// canceled reports the cancellation error, polled sparsely by event
// count.
func (e *Engine) canceled() error {
	if e.cancel != nil && e.count%cancelCheckInterval == 0 {
		if err := e.cancel.Err(); err != nil {
			return fmt.Errorf("sim: run canceled at t=%v: %w", e.now, err)
		}
	}
	return nil
}

// NewEngine returns an engine with the given parameters and RNG seed.
func NewEngine(p Params, seed int64) *Engine {
	if p.MaxEvents == 0 {
		p.MaxEvents = 200_000_000
	}
	return &Engine{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events returns the number of events executed so far.
func (e *Engine) Events() int { return e.count }

// After schedules fn to run d after the current simulated time.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(event{at: e.now + d, fn: fn})
}

// schedule queues ev, stamping it with the next sequence number.
func (e *Engine) schedule(ev event) {
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
}

// exec runs one popped event.
func (e *Engine) exec(ev *event) {
	e.now = ev.at
	e.count++
	if ev.fn != nil {
		ev.fn()
	} else {
		e.net.deliver(ev.from, ev.to, ev.payload)
	}
	if e.PostEvent != nil {
		e.PostEvent()
	}
}

// Delay samples one message processing+transmission delay, uniform in
// [MinDelay, MaxDelay].
func (e *Engine) Delay() time.Duration {
	span := e.P.MaxDelay - e.P.MinDelay
	if span <= 0 {
		return e.P.MinDelay
	}
	return e.P.MinDelay + time.Duration(e.rng.Int63n(int64(span)))
}

// MRAI samples one per-peer MRAI interval: MRAIBase scaled by a uniform
// factor in [MRAIJitterMin, MRAIJitterMax]. It returns zero when MRAI is
// disabled.
func (e *Engine) MRAI() time.Duration {
	if !e.P.MRAIEnabled {
		return 0
	}
	f := e.P.MRAIJitterMin + e.rng.Float64()*(e.P.MRAIJitterMax-e.P.MRAIJitterMin)
	return time.Duration(float64(e.P.MRAIBase) * f)
}

// Run executes events until the queue drains, returning the number of
// events executed. It fails if MaxEvents is exceeded, which indicates a
// protocol that does not converge.
func (e *Engine) Run() (int, error) {
	start := e.count
	for len(e.events) > 0 {
		if e.count >= e.P.MaxEvents {
			return e.count - start, fmt.Errorf("sim: exceeded %d events at t=%v; protocol may not converge", e.P.MaxEvents, e.now)
		}
		if err := e.canceled(); err != nil {
			return e.count - start, err
		}
		ev := e.events.pop()
		if ev.at < e.now {
			return e.count - start, fmt.Errorf("sim: time went backwards (%v -> %v)", e.now, ev.at)
		}
		e.exec(&ev)
	}
	return e.count - start, nil
}

// RunUntil executes events with timestamps <= deadline and stops, leaving
// later events queued. It returns the number executed.
func (e *Engine) RunUntil(deadline time.Duration) (int, error) {
	start := e.count
	for len(e.events) > 0 && e.events[0].at <= deadline {
		if e.count >= e.P.MaxEvents {
			return e.count - start, fmt.Errorf("sim: exceeded %d events at t=%v", e.P.MaxEvents, e.now)
		}
		if err := e.canceled(); err != nil {
			return e.count - start, err
		}
		ev := e.events.pop()
		e.exec(&ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.count - start, nil
}

// Pending reports whether any events remain queued.
func (e *Engine) Pending() bool { return len(e.events) > 0 }
