// Package experiments contains one harness per figure and claim in the
// paper's evaluation (§6): the Φ disjointness CDF (Figure 1), transient
// problems under single and multiple link failures for BGP, R-BGP with
// and without RCI, and STAMP (Figures 2 and 3), the §6.3 experiments on
// partial deployment, protocol overhead, and convergence delay, and a
// topology-seed × scenario sweep grid beyond the paper's own evaluation.
//
// Every harness is expressed as enumerable trials over internal/runner:
// independent (trial, protocol) shards with seeds derived from a master
// seed, executed on a worker pool and folded into mergeable
// internal/metrics aggregates in trial order. Aggregated results — text
// or JSON — are bit-identical for any worker count (see DESIGN.md).
//
// Nothing here builds a simulation: a transient trial and a loss-curve
// shard both run on internal/traffic's one simulated instance, and this
// package holds the specs, accumulators and reports around them.
package experiments

import "stamp/internal/traffic"

// Protocol selects the routing protocol under test: the traffic
// engine's enum, so the transient harness and the loss curves name
// protocols, and render them in JSON, identically.
type Protocol = traffic.Protocol

// The four protocols of the paper's evaluation.
const (
	// ProtoBGP is standard BGP.
	ProtoBGP = traffic.BGP
	// ProtoRBGPNoRCI is R-BGP with failover paths but without root cause
	// information.
	ProtoRBGPNoRCI = traffic.RBGPNoRCI
	// ProtoRBGP is full R-BGP with RCI.
	ProtoRBGP = traffic.RBGP
	// ProtoSTAMP is the paper's multi-process protocol.
	ProtoSTAMP = traffic.STAMP
)

// AllProtocols lists the four protocols in the paper's presentation
// order.
func AllProtocols() []Protocol { return traffic.AllProtocols() }
