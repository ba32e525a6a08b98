// Package scenario is the single source of failure workloads shared by
// the discrete-event simulator (internal/sim via internal/lab)
// and the live emulation (internal/emu): the paper's §6.2 failure kinds,
// the random workload picker that instantiates them on a topology, and a
// small scripting layer (events at scheduled offsets) that both engines
// execute — the simulator in virtual time, the emulation in wall-clock
// time. Keeping one scenario type here is what makes sim-vs-live
// differential validation meaningful: both sides face byte-identical
// workloads.
package scenario

import (
	"fmt"
	"math/rand"

	"stamp/internal/topology"
)

// Topo is the topology view the workload pickers need. Both the
// adjacency-list *topology.Graph and the flat CSR *atlas.Graph satisfy
// it, so every workload kind — flap-storm included — is pickable on
// either representation through one implementation. Note that pickers
// draw neighbors by index, and the two representations order adjacency
// differently (insertion order vs sorted CSR groups): the same Kind +
// seed yields the same workload *distribution* on both, and the same
// instance only when the adjacency orders coincide (e.g. a graph and
// its own CSR conversion do not qualify; one Topo value reused across
// harnesses does).
type Topo interface {
	// Len is the number of ASes.
	Len() int
	// Providers lists the providers of a (read-only).
	Providers(a topology.ASN) []topology.ASN
	// Neighbors appends all neighbors of a to dst and returns it.
	Neighbors(dst []topology.ASN, a topology.ASN) []topology.ASN
	// Degree is the total neighbor count of a.
	Degree(a topology.ASN) int
	// IsMultihomed reports whether a has two or more providers.
	IsMultihomed(a topology.ASN) bool
}

// Kind selects the failure workload of §6.2 (plus the link-quality
// workloads the steering arm added). Every Kind must have a row in
// kindTable — the registry-coverage test and the package init both
// enforce it.
type Kind int

const (
	// SingleLink fails one provider link of the (multi-homed)
	// destination AS — Figure 2.
	SingleLink Kind = iota
	// TwoLinksApart fails a provider link of the destination and an
	// indirect provider link multiple hops away, not sharing any AS —
	// Figure 3(a).
	TwoLinksApart
	// TwoLinksShared fails a provider link of the destination and a
	// provider link of that same provider — Figure 3(b).
	TwoLinksShared
	// NodeFailure fails an entire provider AS of the destination (the
	// paper's single-node-failure variant).
	NodeFailure
	// LinkFlap repeatedly fails and restores the same provider link of
	// the destination (FlapCycles fail/restore rounds, FlapRestoreAfter
	// apart) — the workload where STAMP's switch-once forwarding earns
	// its keep: the preferred color never stabilizes, yet every packet
	// may still switch to the other color once and be delivered.
	LinkFlap
	// PrefixWithdraw has the origin withdraw its prefix: no topology
	// damage, pure control-plane retraction racing the data plane.
	PrefixWithdraw
	// FlapStorm fails many links at once and restores them together,
	// for FlapCycles rounds — correlated churn, the regime a real
	// maintenance window or a flapping backbone produces. The flapped
	// links are drawn from the degree distribution (endpoints sampled
	// proportionally to degree), so storms concentrate where real
	// instability does: on the big transit ASes.
	FlapStorm
	// LatencyBrownout ramps the latency of one destination provider
	// link up in steps without ever failing it: sessions stay alive,
	// routing never reacts, only the data plane suffers. The workload
	// latency-aware steering exists for.
	LatencyBrownout
	// GrayFailure puts probabilistic packet loss on one destination
	// provider link while BGP sessions stay up — the classic gray
	// failure that is invisible to the control plane.
	GrayFailure
	// OscillatingCongestion moves a large latency swing back and forth
	// between two provider links of the destination, period
	// 2×FlapRestoreAfter, for OscCycles rounds — tuned to probe steering
	// hysteresis: a hair-trigger policy chases the congestion and flaps,
	// a damped one switches once and sits out the swings.
	OscillatingCongestion

	// kindCount counts the kinds; keep it last. kindTable must have
	// exactly one row per kind — init panics and the registry-coverage
	// test fails otherwise.
	kindCount
)

// Set is one instantiated workload: the destination plus the links to
// fail (for node failure, Node >= 0 instead).
type Set struct {
	Dest  topology.ASN
	Links [][2]topology.ASN
	Node  topology.ASN
}

// Multihomed enumerates candidate destination ASes once per run so trial
// shards don't rescan the topology.
func Multihomed(g Topo) []topology.ASN {
	var out []topology.ASN
	for a := 0; a < g.Len(); a++ {
		if g.IsMultihomed(topology.ASN(a)) {
			out = append(out, topology.ASN(a))
		}
	}
	return out
}

// Pick draws a destination and failure set for the kind. multihomed is
// the candidate destination list (Multihomed(g)); the same rng sequence
// always yields the same workload. The per-kind logic lives in the
// descriptor table's pick functions.
func Pick(g Topo, multihomed []topology.ASN, k Kind, rng *rand.Rand) (Set, error) {
	d, ok := desc(k)
	if !ok {
		return Set{}, fmt.Errorf("scenario: unknown kind %d", int(k))
	}
	if len(multihomed) == 0 {
		return Set{}, fmt.Errorf("scenario: topology has no multi-homed AS")
	}
	const maxTries = 1000
	for try := 0; try < maxTries; try++ {
		dest := multihomed[rng.Intn(len(multihomed))]
		s, ok, err := d.pick(g, dest, rng)
		if err != nil {
			return Set{}, err
		}
		if ok {
			return s, nil
		}
	}
	return Set{}, fmt.Errorf("scenario: could not build %v workload", k)
}

// pickIndirectProviderLink random-walks up the provider hierarchy from
// the destination and returns a customer-provider link at least one hop
// away whose endpoints avoid both the destination and its failed provider
// p (the "not connected to the same AS" condition of Figure 3(a)).
func pickIndirectProviderLink(g Topo, dest, p topology.ASN, rng *rand.Rand) ([2]topology.ASN, bool) {
	for attempt := 0; attempt < 50; attempt++ {
		provs := g.Providers(dest)
		v := provs[rng.Intn(len(provs))]
		if v == p {
			continue
		}
		// Climb a random number of additional steps, then fail the next
		// link up.
		steps := rng.Intn(2)
		ok := true
		for i := 0; i < steps; i++ {
			up := g.Providers(v)
			if len(up) == 0 {
				ok = false
				break
			}
			v = up[rng.Intn(len(up))]
			if v == p || v == dest {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		up := g.Providers(v)
		if len(up) == 0 {
			continue
		}
		w := up[rng.Intn(len(up))]
		if w == p || w == dest || v == p || v == dest {
			continue
		}
		return [2]topology.ASN{v, w}, true
	}
	return [2]topology.ASN{}, false
}

// StormSize is the number of distinct links a flap-storm flaps on an
// n-AS topology: it scales with the graph so storms stay "many
// concurrent flaps" at every size without drowning small test graphs.
func StormSize(n int) int {
	k := n / 250
	if k < 4 {
		k = 4
	}
	if k > 64 {
		k = 64
	}
	return k
}

// pickStormLinks draws StormSize distinct links from the degree
// distribution: an endpoint AS is sampled with probability proportional
// to its degree, then one of its incident links uniformly — so
// high-degree transit ASes attract flaps the way they attract real
// instability. Links are deduplicated under endpoint normalization.
func pickStormLinks(g Topo, rng *rand.Rand) ([][2]topology.ASN, error) {
	n := g.Len()
	total := 0
	for a := 0; a < n; a++ {
		total += g.Degree(topology.ASN(a))
	}
	if total == 0 {
		return nil, fmt.Errorf("scenario: topology has no links to flap")
	}
	want := StormSize(n)
	seen := make(map[[2]topology.ASN]bool, want)
	links := make([][2]topology.ASN, 0, want)
	var nbrs []topology.ASN
	const maxTries = 10000
	for try := 0; len(links) < want && try < maxTries; try++ {
		// Degree-proportional endpoint draw via the cumulative degree sum.
		x := rng.Intn(total)
		a := topology.ASN(-1)
		for v := 0; v < n; v++ {
			x -= g.Degree(topology.ASN(v))
			if x < 0 {
				a = topology.ASN(v)
				break
			}
		}
		nbrs = g.Neighbors(nbrs[:0], a)
		b := nbrs[rng.Intn(len(nbrs))]
		key := [2]topology.ASN{a, b}
		if b < a {
			key = [2]topology.ASN{b, a}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		links = append(links, key)
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("scenario: could not draw storm links")
	}
	return links, nil
}
