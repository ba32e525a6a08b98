// Package steer is the latency-aware color-steering subsystem: a link
// latency/RTT model attached to the topology and a per-source health-
// monitoring policy over STAMP's red/blue planes (ported from the
// lagbuster recipe: static baselines, comfort zones, consecutive-
// unhealthy counters, switch cooldowns). The four-arm experiment grid
// (BGP / R-BGP / STAMP / STAMP-steer) measuring whether intelligent
// steering beats static color locking on user-perceived latency is the
// lab package's steer-latency and steer-loss experiments.
package steer

import (
	"fmt"

	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// Link-class baselines in milliseconds. Customer-provider (transit)
// links are short regional hops; peer links are the long-haul
// interconnects between transit clouds. Jitter spreads each link
// uniformly over its class band so no two links are suspiciously
// identical.
const (
	TransitBaseMs   = 6.0
	TransitJitterMs = 10.0
	PeerBaseMs      = 14.0
	PeerJitterMs    = 24.0
)

// linkKey packs a normalized link into one map key.
type linkKey uint64

func packLink(a, b int32) linkKey {
	if b < a {
		a, b = b, a
	}
	return linkKey(uint64(uint32(a))<<32 | uint64(uint32(b)))
}

// Model is the link latency/loss model of one topology: per-link
// baseline latencies drawn deterministically from link class plus
// seeded jitter, and mutable degradation state (latency multipliers,
// gray-loss rates) driven by scenario quality events. It implements
// traffic.LinkCost for the walkers and scenario.QualityExecutor for
// scripts. A Model is not goroutine-safe; parallel trial shards each
// build their own (same graph + seed ⇒ identical baselines).
type Model struct {
	base map[linkKey]float32
	mult map[linkKey]float32
	gray map[linkKey]float32
}

// NewModel derives the per-link baselines from any scenario.Topo view
// of the graph — both the adjacency-list and CSR representations yield
// the same model for the same seed, because the jitter hash depends
// only on the normalized endpoint pair, never on adjacency order.
func NewModel(g scenario.Topo, seed int64) *Model {
	n := g.Len()
	transit := make(map[linkKey]bool)
	for a := 0; a < n; a++ {
		for _, p := range g.Providers(topology.ASN(a)) {
			transit[packLink(int32(a), int32(p))] = true
		}
	}
	m := &Model{
		base: make(map[linkKey]float32),
		mult: make(map[linkKey]float32),
		gray: make(map[linkKey]float32),
	}
	var nbrs []topology.ASN
	for a := 0; a < n; a++ {
		nbrs = g.Neighbors(nbrs[:0], topology.ASN(a))
		for _, b := range nbrs {
			if int32(b) <= int32(a) {
				continue // visit each link once
			}
			k := packLink(int32(a), int32(b))
			j := jitter(seed, uint64(k))
			if transit[k] {
				m.base[k] = float32(TransitBaseMs + j*TransitJitterMs)
			} else {
				m.base[k] = float32(PeerBaseMs + j*PeerJitterMs)
			}
		}
	}
	return m
}

// jitter hashes (seed, link) to [0, 1) with a SplitMix64 finalizer —
// order-independent and stable across graph representations.
func jitter(seed int64, key uint64) float64 {
	z := uint64(seed) ^ key
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// LinkLatMs implements traffic.LinkCost: the baseline times any active
// degradation multiplier.
func (m *Model) LinkLatMs(a, b int32) float64 {
	k := packLink(a, b)
	lat := float64(m.base[k])
	if mult, ok := m.mult[k]; ok {
		lat *= float64(mult)
	}
	return lat
}

// LinkLossRate implements traffic.LinkCost: the link's active gray-loss
// rate (0 when healthy).
func (m *Model) LinkLossRate(a, b int32) float64 {
	return float64(m.gray[packLink(a, b)])
}

// checkLink verifies the link exists in the model.
func (m *Model) checkLink(a, b topology.ASN) (linkKey, error) {
	k := packLink(int32(a), int32(b))
	if _, ok := m.base[k]; !ok {
		return 0, fmt.Errorf("steer: no link %d--%d in latency model", a, b)
	}
	return k, nil
}

// DegradeLink implements scenario.QualityExecutor: set (not stack) the
// link's latency multiplier.
func (m *Model) DegradeLink(a, b topology.ASN, mult float64) error {
	k, err := m.checkLink(a, b)
	if err != nil {
		return err
	}
	m.mult[k] = float32(mult)
	return nil
}

// GrayLink implements scenario.QualityExecutor: set the link's
// probabilistic loss rate.
func (m *Model) GrayLink(a, b topology.ASN, rate float64) error {
	k, err := m.checkLink(a, b)
	if err != nil {
		return err
	}
	m.gray[k] = float32(rate)
	return nil
}

// ClearLink implements scenario.QualityExecutor: back to baseline.
func (m *Model) ClearLink(a, b topology.ASN) error {
	k, err := m.checkLink(a, b)
	if err != nil {
		return err
	}
	delete(m.mult, k)
	delete(m.gray, k)
	return nil
}
