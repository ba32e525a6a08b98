package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"stamp/internal/topology"
)

// Op is one scripted action kind.
type Op int

const (
	// OpFailLink takes the link {A, B} down.
	OpFailLink Op = iota
	// OpRestoreLink brings the failed link {A, B} back up.
	OpRestoreLink
	// OpFailNode fails every link adjacent to Node.
	OpFailNode
	// OpWithdraw withdraws the prefix originated at Node.
	OpWithdraw
	// OpDegradeLink multiplies the latency of link {A, B} by Mag without
	// touching its liveness: sessions stay up, routing never reacts.
	// Pure data-plane damage — only executors carrying a link-quality
	// model (QualityExecutor) observe it.
	OpDegradeLink
	// OpGrayLink puts probabilistic packet loss of rate Mag on link
	// {A, B} while the BGP session stays alive — a gray failure.
	OpGrayLink
	// OpClearLink removes any degradation and gray loss from link
	// {A, B}, returning it to its baseline quality.
	OpClearLink
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpFailLink:
		return "fail-link"
	case OpRestoreLink:
		return "restore-link"
	case OpFailNode:
		return "fail-node"
	case OpWithdraw:
		return "withdraw"
	case OpDegradeLink:
		return "degrade-link"
	case OpGrayLink:
		return "gray-link"
	case OpClearLink:
		return "clear-link"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Quality reports whether the op is a link-quality event: data-plane
// only, invisible to the control plane by design. Executors without a
// QualityExecutor implementation no-op them, and convergence engines
// treat them as routing-neutral.
func (o Op) Quality() bool {
	return o == OpDegradeLink || o == OpGrayLink || o == OpClearLink
}

// Event is one scripted action at an offset from script start. Offsets
// are virtual time for the simulator and wall-clock time for the live
// emulation; scripts keep them small enough that both interpretations
// land after the previous event's convergence.
type Event struct {
	At   time.Duration
	Op   Op
	A, B topology.ASN // link endpoints (link-scoped ops)
	Node topology.ASN // subject AS (OpFailNode, OpWithdraw)
	// Mag is the op magnitude: the latency multiplier for
	// OpDegradeLink, the loss rate for OpGrayLink, unused otherwise.
	Mag float64
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Op {
	case OpFailLink, OpRestoreLink, OpClearLink:
		return fmt.Sprintf("%v@%v(%d--%d)", e.Op, e.At, e.A, e.B)
	case OpDegradeLink, OpGrayLink:
		return fmt.Sprintf("%v@%v(%d--%d,%g)", e.Op, e.At, e.A, e.B, e.Mag)
	default:
		return fmt.Sprintf("%v@%v(%d)", e.Op, e.At, e.Node)
	}
}

// Script is a complete workload: the destination AS that originates the
// prefix, plus the failure events to inject after initial convergence.
type Script struct {
	Name   string
	Dest   topology.ASN
	Events []Event
}

// Sorted returns the events ordered by offset. The order is a
// guarantee, not an accident: events with identical offsets keep their
// Script index order (stable sort), so every consumer — the grouped
// atlas driver, the incremental replay, the simulator, the live
// emulation — applies a colliding-offset script in exactly one
// reproducible sequence.
func (s Script) Sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Executor is what a script runs against: the simulator's network and the
// live fabric both implement it.
type Executor interface {
	FailLink(a, b topology.ASN) error
	RestoreLink(a, b topology.ASN) error
	FailNode(a topology.ASN) error
	Withdraw(dest topology.ASN) error
}

// QualityExecutor is the optional extension for executors that carry a
// link-quality model (latency multipliers, gray loss). Apply dispatches
// the quality ops to it; executors without the extension silently
// no-op them — a link-quality event is control-plane invisible by
// definition, so a pure routing engine correctly sees nothing.
type QualityExecutor interface {
	// DegradeLink multiplies the latency of link {a, b} by mult
	// (replacing any previous multiplier, not stacking).
	DegradeLink(a, b topology.ASN, mult float64) error
	// GrayLink sets a probabilistic loss rate on link {a, b}.
	GrayLink(a, b topology.ASN, rate float64) error
	// ClearLink resets link {a, b} to baseline quality.
	ClearLink(a, b topology.ASN) error
}

// Apply executes one event against an executor.
func Apply(x Executor, e Event) error {
	switch e.Op {
	case OpFailLink:
		return x.FailLink(e.A, e.B)
	case OpRestoreLink:
		return x.RestoreLink(e.A, e.B)
	case OpFailNode:
		return x.FailNode(e.Node)
	case OpWithdraw:
		return x.Withdraw(e.Node)
	}
	if !e.Op.Quality() {
		return fmt.Errorf("scenario: unknown op %v", e.Op)
	}
	q, ok := x.(QualityExecutor)
	if !ok {
		return nil // control-plane invisible: no-op for pure routing executors
	}
	switch e.Op {
	case OpDegradeLink:
		return q.DegradeLink(e.A, e.B, e.Mag)
	case OpGrayLink:
		return q.GrayLink(e.A, e.B, e.Mag)
	}
	return q.ClearLink(e.A, e.B)
}

// FromSet turns a picked failure set into a script: all failures injected
// at offset zero, exactly like the simulator's transient experiments.
func FromSet(name string, s Set) Script {
	sc := Script{Name: name, Dest: s.Dest}
	if s.Node >= 0 {
		sc.Events = append(sc.Events, Event{Op: OpFailNode, Node: s.Node})
	}
	for _, l := range s.Links {
		sc.Events = append(sc.Events, Event{Op: OpFailLink, A: l[0], B: l[1]})
	}
	return sc
}

// FlapRestoreAfter is the interval between consecutive events of a
// link-flap script: each fail is followed by a restore this much later,
// and the next fail the same interval after that.
const FlapRestoreAfter = 250 * time.Millisecond

// FlapCycles is the number of fail/restore rounds in a link-flap script.
const FlapCycles = 2

// FlapScript lays a picked LinkFlap set out as FlapCycles fail/restore
// rounds of the same link, FlapRestoreAfter apart: fail@0, restore@250ms,
// fail@500ms, restore@750ms, …
func FlapScript(name string, s Set) Script {
	l := s.Links[0]
	sc := Script{Name: name, Dest: s.Dest}
	for c := 0; c < FlapCycles; c++ {
		at := time.Duration(c) * 2 * FlapRestoreAfter
		sc.Events = append(sc.Events,
			Event{At: at, Op: OpFailLink, A: l[0], B: l[1]},
			Event{At: at + FlapRestoreAfter, Op: OpRestoreLink, A: l[0], B: l[1]},
		)
	}
	return sc
}

// StormScript lays a picked FlapStorm set out as FlapCycles correlated
// fail/restore rounds: every drawn link fails at the cycle start and is
// restored FlapRestoreAfter later, all links moving together — the
// "maintenance window gone wrong" shape where whole swaths of the graph
// churn at once.
func StormScript(name string, s Set) Script {
	sc := Script{Name: name, Dest: s.Dest}
	for c := 0; c < FlapCycles; c++ {
		at := time.Duration(c) * 2 * FlapRestoreAfter
		for _, l := range s.Links {
			sc.Events = append(sc.Events, Event{At: at, Op: OpFailLink, A: l[0], B: l[1]})
		}
		for _, l := range s.Links {
			sc.Events = append(sc.Events, Event{At: at + FlapRestoreAfter, Op: OpRestoreLink, A: l[0], B: l[1]})
		}
	}
	return sc
}

// WithdrawScript lays a picked PrefixWithdraw set out as the bare origin
// withdrawal at offset zero.
func WithdrawScript(name string, s Set) Script {
	return Script{Name: name, Dest: s.Dest, Events: []Event{
		{Op: OpWithdraw, Node: s.Dest},
	}}
}

// BrownoutRamp is the latency-multiplier staircase of a
// latency-brownout script, applied FlapRestoreAfter apart: the link gets
// slower and slower but never dies, the regime where reachability
// metrics see nothing and user-perceived latency craters.
var BrownoutRamp = []float64{2, 4, 8}

// BrownoutScript lays a picked LatencyBrownout set out as the ramp:
// degrade 2×@0, 4×@250ms, 8×@500ms on the one drawn provider link, then
// hold — the damage persists to the end of the observation window.
func BrownoutScript(name string, s Set) Script {
	l := s.Links[0]
	sc := Script{Name: name, Dest: s.Dest}
	for i, mult := range BrownoutRamp {
		sc.Events = append(sc.Events, Event{
			At: time.Duration(i) * FlapRestoreAfter,
			Op: OpDegradeLink, A: l[0], B: l[1], Mag: mult,
		})
	}
	return sc
}

// GrayLossRates is the loss-rate staircase of a gray-failure script:
// the link starts dropping a sixth of its packets, then a third — alive
// enough that no session dies, broken enough that users notice.
var GrayLossRates = []float64{0.15, 0.35}

// GrayScript lays a picked GrayFailure set out as the worsening gray
// loss on the one drawn provider link, steps FlapRestoreAfter apart,
// persisting to the end of the window.
func GrayScript(name string, s Set) Script {
	l := s.Links[0]
	sc := Script{Name: name, Dest: s.Dest}
	for i, rate := range GrayLossRates {
		sc.Events = append(sc.Events, Event{
			At: time.Duration(i) * FlapRestoreAfter,
			Op: OpGrayLink, A: l[0], B: l[1], Mag: rate,
		})
	}
	return sc
}

// OscCycles is the number of swing rounds in an oscillating-congestion
// script.
const OscCycles = 4

// OscMult is the latency multiplier of each congestion swing.
const OscMult = 6.0

// OscillationScript lays a picked OscillatingCongestion set out as
// congestion moving between the two drawn provider links: link 0
// degrades OscMult× at each cycle start and clears FlapRestoreAfter
// later, at which instant link 1 degrades, clearing at the next cycle
// start — for OscCycles rounds, period 2×FlapRestoreAfter. Every
// degrade is cleared, so the script is restore-balanced and replayable
// in cycles. A policy with no hysteresis chases the swings and flaps;
// cooldowns bound it to at most one switch per cooldown window.
func OscillationScript(name string, s Set) Script {
	p, q := s.Links[0], s.Links[1]
	sc := Script{Name: name, Dest: s.Dest}
	for c := 0; c < OscCycles; c++ {
		at := time.Duration(c) * 2 * FlapRestoreAfter
		sc.Events = append(sc.Events,
			Event{At: at, Op: OpDegradeLink, A: p[0], B: p[1], Mag: OscMult},
			Event{At: at + FlapRestoreAfter, Op: OpClearLink, A: p[0], B: p[1]},
			Event{At: at + FlapRestoreAfter, Op: OpDegradeLink, A: q[0], B: q[1], Mag: OscMult},
			Event{At: at + 2*FlapRestoreAfter, Op: OpClearLink, A: q[0], B: q[1]},
		)
	}
	return sc
}

// ScriptFor lays a picked set out as the kind's canonical script via
// the kind-descriptor table: FlapCycles fail/restore rounds for
// LinkFlap, correlated multi-link rounds for FlapStorm, a bare origin
// withdrawal for PrefixWithdraw, quality ramps and swings for the
// link-quality kinds, everything at offset zero otherwise. Script is
// the canonical workload form — the Set is just the picker's
// intermediate — so every harness (transient, sweep, loss, live
// emulation, atlas, steer) executes the same event stream for the same
// instance.
func ScriptFor(k Kind, s Set) Script {
	d, ok := desc(k)
	if !ok {
		return FromSet(k.String(), s)
	}
	return d.script(d.label, s)
}

// PickScript draws a workload instance of the kind and returns it in
// canonical Script form; the same rng sequence always yields the same
// script.
func PickScript(g Topo, multihomed []topology.ASN, k Kind, rng *rand.Rand) (Script, error) {
	s, err := Pick(g, multihomed, k, rng)
	if err != nil {
		return Script{}, err
	}
	return ScriptFor(k, s), nil
}

// Named builds a script by CLI name on a topology, with workload
// randomness drawn from seed: the §6.2 failure kinds (including
// "link-flap", FlapCycles fail/restore rounds of one destination provider
// link), "prefix-withdraw" (the origin withdraws its prefix),
// "flap-storm" (many degree-weighted concurrent link flaps), and the
// link-quality kinds ("latency-brownout", "gray-failure",
// "oscillating-congestion").
func Named(name string, g Topo, seed int64) (Script, error) {
	k, err := ParseKind(name)
	if err != nil {
		return Script{}, err
	}
	return PickScript(g, Multihomed(g), k, rand.New(rand.NewSource(seed)))
}
