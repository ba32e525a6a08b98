// Package traffic is the packet-level data-plane engine: it injects
// per-source flow batches against a converging routing system and
// produces time-resolved delivery/loss/stretch curves — the workload
// behind the paper's §5.1 claim that STAMP's data plane stays usable
// while the control plane converges.
//
// Two injection backends share one engine:
//
//   - sim (RunSim): the discrete-event simulator is paused at virtual-time
//     ticks during a scenario.Script; at each tick the forwarding tables
//     are flattened into arrays and a batched, memoized multi-source
//     walker classifies every source in one pass — except on ticks
//     during which the engine executed no event, which re-observe the
//     previous classification. The flat walkers do millions of
//     packet-walks per second (see BenchmarkTrafficWalk), which is what
//     makes dense tick sampling over many trials cheap.
//   - emu (RunEmu): the same synthetic flows are driven through the live
//     fabric's wall-clock tables (internal/emu) during the same script,
//     and the resulting deliverability is differentially validated
//     against the simulator's — extending PR 2's Tables.Diff methodology
//     from "same final tables" to "same transient deliverability".
//
// The walkers are equivalence-tested against their semantic references:
// the callback-driven classifiers in internal/forwarding for BGP and
// STAMP, and for R-BGP the (AS, arriving neighbor)-keyed walk kept in
// this package's tests.
package traffic

import (
	"fmt"

	"stamp/internal/forwarding"
)

// Protocol selects the routing protocol whose data plane is exercised.
// It mirrors internal/experiments.Protocol (which cannot be imported
// here: experiments sits above traffic and hosts the sharded loss-curve
// harness on top of this package).
type Protocol int

const (
	// BGP is standard BGP: one process, next-hop forwarding.
	BGP Protocol = iota
	// RBGPNoRCI is R-BGP failover forwarding without root cause
	// information.
	RBGPNoRCI
	// RBGP is full R-BGP with RCI.
	RBGP
	// STAMP is the paper's multi-process protocol with switch-once
	// color forwarding.
	STAMP
	// STAMPSteer is STAMP with latency-aware color steering: the same
	// control plane and data plane, but each source's stamped color is
	// driven by a health-monitoring policy (internal/steer) instead of
	// the node's static preference. Requires SimOpts.Cost and
	// SimOpts.Steer.
	STAMPSteer
)

// AllProtocols lists the protocols in the paper's presentation order.
func AllProtocols() []Protocol { return []Protocol{BGP, RBGPNoRCI, RBGP, STAMP} }

// GridProtocols is the steering comparison grid: the paper's arms with
// R-BGP-without-RCI swapped for the steering arm.
func GridProtocols() []Protocol { return []Protocol{BGP, RBGP, STAMP, STAMPSteer} }

// String names the protocol as in the paper's figures.
func (p Protocol) String() string {
	switch p {
	case BGP:
		return "BGP"
	case RBGPNoRCI:
		return "R-BGP without RCI"
	case RBGP:
		return "R-BGP"
	case STAMP:
		return "STAMP"
	case STAMPSteer:
		return "STAMP-steer"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// MarshalText renders the protocol by its figure label in JSON reports.
func (p Protocol) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// ParseProtocol maps the CLI spelling of a protocol to its value.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "bgp":
		return BGP, nil
	case "rbgp-norci":
		return RBGPNoRCI, nil
	case "rbgp":
		return RBGP, nil
	case "stamp":
		return STAMP, nil
	case "stamp-steer":
		return STAMPSteer, nil
	}
	return 0, fmt.Errorf("unknown protocol %q (want bgp, rbgp-norci, rbgp, stamp, or stamp-steer)", s)
}

// Steerer is the color-steering hook the STAMP-steer arm drives. It is
// defined here (not in internal/steer, which implements it) so the
// traffic engine stays below the steering subsystem in the import
// graph. All slices are indexed by source AS; colors are 0 red, 1 blue.
type Steerer interface {
	// Init seeds the policy from the converged pre-event data plane:
	// per-color forced-path latency/loss samples become the static
	// baselines, and pref (the nodes' own color preference) becomes the
	// starting assignment. Called once, before any Step.
	Init(redLat, redLossP, blueLat, blueLossP []float32, pref []uint8)
	// Colors returns the current per-source color assignment. The
	// engine stamps these on locally sourced packets in place of the
	// nodes' preference; the slice is owned by the policy and mutated
	// by Step.
	Colors() []uint8
	// Step feeds one sampling tick's forced per-color measurements; the
	// policy updates Colors for the next tick. Samples use NoLat for
	// unreachable.
	Step(redLat, redLossP, blueLat, blueLossP []float32)
}

// Walk is the outcome of one batched classification pass, in
// structure-of-arrays layout: one status and hop count per source AS.
// Hops is forwarding.NoHops for sources whose packets never arrive.
// When the walker carries a LinkCost model, LatMs and LossP
// additionally hold the end-to-end path latency (NoLat if undelivered)
// and the path gray-loss probability (1 if undelivered); they are nil
// on cost-free walks.
type Walk struct {
	Status []forwarding.Status
	Hops   []int32
	LatMs  []float32
	LossP  []float32
}

// reset sizes the walk for n sources.
func (w *Walk) reset(n int) {
	if cap(w.Status) < n {
		w.Status = make([]forwarding.Status, n)
		w.Hops = make([]int32, n)
	}
	w.Status = w.Status[:n]
	w.Hops = w.Hops[:n]
}

// resetCost sizes the cost arrays for n sources.
func (w *Walk) resetCost(n int) {
	if cap(w.LatMs) < n {
		w.LatMs = make([]float32, n)
		w.LossP = make([]float32, n)
	}
	w.LatMs = w.LatMs[:n]
	w.LossP = w.LossP[:n]
}

// Delivered counts delivered sources.
func (w *Walk) Delivered() int {
	n := 0
	for _, s := range w.Status {
		if s == forwarding.Delivered {
			n++
		}
	}
	return n
}
