package testkit

import (
	"fmt"

	"stamp/internal/topology"
)

// An AS path is a sequence of ASNs from a source AS to a destination AS,
// in forwarding order: path[0] is the source, path[len-1] the destination
// (origin of the prefix).

// PathSplit describes the valley-free decomposition of an AS path.
// Uphill covers path[:PeakStart] steps that go customer->provider;
// HasPeerStep tells whether a single peer-peer step follows; Downhill
// covers the remaining provider->customer steps. Indexes refer to the
// original path slice.
type PathSplit struct {
	// UphillEnd is the index of the last AS of the uphill portion
	// (0 if the path starts with a peer step or goes straight down).
	UphillEnd int
	// HasPeerStep reports whether the step from UphillEnd crosses a
	// peering link.
	HasPeerStep bool
	// DownhillStart is the index of the first AS of the downhill portion;
	// every subsequent step is provider->customer. If the path ends at its
	// peak, DownhillStart == len(path)-1.
	DownhillStart int
}

// SplitPath decomposes path into its uphill / peer / downhill portions,
// returning an error if the path is not valley-free or not a real walk in
// g. Single-AS paths are trivially valley-free.
func SplitPath(g *topology.Graph, path []topology.ASN) (PathSplit, error) {
	if len(path) == 0 {
		return PathSplit{}, fmt.Errorf("topology: empty path")
	}
	const (
		up = iota
		flat
		down
	)
	phase := up
	split := PathSplit{UphillEnd: 0, DownhillStart: len(path) - 1}
	for i := 0; i+1 < len(path); i++ {
		rel := g.Rel(path[i], path[i+1])
		switch rel {
		case topology.RelNone:
			return PathSplit{}, fmt.Errorf("topology: %d and %d are not neighbors", path[i], path[i+1])
		case topology.RelProvider: // uphill step
			if phase != up {
				return PathSplit{}, fmt.Errorf("topology: uphill step %d->%d after peak", path[i], path[i+1])
			}
			split.UphillEnd = i + 1
		case topology.RelPeer:
			if phase != up {
				return PathSplit{}, fmt.Errorf("topology: second peer/late peer step %d->%d", path[i], path[i+1])
			}
			phase = flat
			split.HasPeerStep = true
			split.UphillEnd = i
			split.DownhillStart = i + 1
		case topology.RelCustomer: // downhill step
			if phase == up {
				split.UphillEnd = i
				split.DownhillStart = i
			}
			if phase == flat {
				split.DownhillStart = i
			}
			phase = down
		}
	}
	if !split.HasPeerStep && phase == up {
		// Pure uphill path: peak is the last AS.
		split.DownhillStart = len(path) - 1
	}
	return split, nil
}

// DownhillNodes returns the ASes of the downhill portion of path,
// including the AS at the top of the downhill segment and the destination.
// For the purposes of STAMP's complementarity property, two paths are
// "downhill node disjoint" when their DownhillNodes sets intersect only in
// the destination (and possibly the source, for degenerate paths).
func DownhillNodes(g *topology.Graph, path []topology.ASN) ([]topology.ASN, error) {
	split, err := SplitPath(g, path)
	if err != nil {
		return nil, err
	}
	return path[split.DownhillStart:], nil
}

// DownhillDisjoint reports whether paths a and b (both ending at the same
// destination) share no AS in their downhill portions other than the
// destination itself and, possibly, a shared source.
func DownhillDisjoint(g *topology.Graph, a, b []topology.ASN) (bool, error) {
	if len(a) == 0 || len(b) == 0 {
		return false, fmt.Errorf("topology: empty path")
	}
	if a[len(a)-1] != b[len(b)-1] {
		return false, fmt.Errorf("topology: paths end at different destinations %d and %d", a[len(a)-1], b[len(b)-1])
	}
	da, err := DownhillNodes(g, a)
	if err != nil {
		return false, err
	}
	db, err := DownhillNodes(g, b)
	if err != nil {
		return false, err
	}
	dest := a[len(a)-1]
	srcA, srcB := a[0], b[0]
	seen := make(map[topology.ASN]bool, len(da))
	for _, v := range da {
		seen[v] = true
	}
	for _, v := range db {
		if !seen[v] {
			continue
		}
		if v == dest {
			continue
		}
		if v == srcA && v == srcB {
			continue
		}
		return false, nil
	}
	return true, nil
}

// PathValleyFree reports whether path is valley-free in g: a sequence of
// zero or more customer-to-provider (uphill) steps, at most one peer step,
// then zero or more provider-to-customer (downhill) steps.
func PathValleyFree(g *topology.Graph, path []topology.ASN) bool {
	_, err := SplitPath(g, path)
	return err == nil
}
