// Package topology models the Internet's AS-level topology: autonomous
// systems connected by customer-provider and peer-peer links, as used by
// the STAMP multi-process interdomain routing protocol (Liao et al.,
// ReArch'08) and the baselines it is evaluated against.
//
// The package provides the graph data structure itself, a synthetic
// Internet-like topology generator, a loader/writer for the standard
// "AS|AS|rel" text format, tier classification, valley-free path
// utilities, and an implementation of Gao's relationship inference
// algorithm.
package topology

import (
	"fmt"
	"sort"
)

// ASN identifies an autonomous system. ASNs are dense small integers in
// generated topologies but may be arbitrary non-negative values in loaded
// ones.
type ASN int32

// Rel is the business relationship between two neighboring ASes, expressed
// from the perspective of one of them.
type Rel int8

const (
	// RelNone means the two ASes are not neighbors.
	RelNone Rel = iota
	// RelCustomer means the neighbor is my customer (I am its provider).
	RelCustomer
	// RelPeer means the neighbor is my settlement-free peer.
	RelPeer
	// RelProvider means the neighbor is my provider (I am its customer).
	RelProvider
)

// String returns a human-readable relationship name.
func (r Rel) String() string {
	switch r {
	case RelNone:
		return "none"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	}
	return fmt.Sprintf("Rel(%d)", int8(r))
}

// Invert flips the perspective of a relationship: if b is a's customer,
// then a is b's provider.
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// Graph is an AS-level topology. It is cheap to share read-only across
// goroutines once built; mutation is not goroutine-safe.
type Graph struct {
	n   int
	adj []adjacency // adj[a] = a's neighbors by relationship
}

// adjacency is one AS's neighbor lists. Keeping the three in one record
// means Degree, Rel and Neighbors — the simulator's link-state queries —
// read one struct, not three arrays.
type adjacency struct {
	providers []ASN // ASes that are providers of a
	customers []ASN // ASes that are customers of a
	peers     []ASN // ASes that peer with a
}

// NewGraph returns an empty graph over ASNs 0..n-1.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([]adjacency, n)}
}

// Len returns the number of ASes in the graph.
func (g *Graph) Len() int { return g.n }

// valid reports whether a names an AS inside the graph.
func (g *Graph) valid(a ASN) bool { return a >= 0 && int(a) < g.n }

// AddProviderLink records that p is a provider of c (equivalently, c is a
// customer of p). Adding a duplicate or self link is an error.
func (g *Graph) AddProviderLink(c, p ASN) error {
	if !g.valid(c) || !g.valid(p) {
		return fmt.Errorf("topology: link %d->%d out of range [0,%d)", c, p, g.n)
	}
	if c == p {
		return fmt.Errorf("topology: self link at AS %d", c)
	}
	if g.Rel(c, p) != RelNone {
		return fmt.Errorf("topology: duplicate link between %d and %d", c, p)
	}
	g.addProvider(c, p)
	return nil
}

// AddPeerLink records a settlement-free peering between a and b.
func (g *Graph) AddPeerLink(a, b ASN) error {
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("topology: peer link %d--%d out of range [0,%d)", a, b, g.n)
	}
	if a == b {
		return fmt.Errorf("topology: self peering at AS %d", a)
	}
	if g.Rel(a, b) != RelNone {
		return fmt.Errorf("topology: duplicate link between %d and %d", a, b)
	}
	g.addPeer(a, b)
	return nil
}

// addProvider records p as c's provider without checks.
func (g *Graph) addProvider(c, p ASN) {
	g.adj[c].providers = append(g.adj[c].providers, p)
	g.adj[p].customers = append(g.adj[p].customers, c)
}

// addPeer records a peering between a and b without checks.
func (g *Graph) addPeer(a, b ASN) {
	g.adj[a].peers = append(g.adj[a].peers, b)
	g.adj[b].peers = append(g.adj[b].peers, a)
}

// Rel returns the relationship of b from a's perspective: RelCustomer if b
// is a's customer, RelProvider if b is a's provider, RelPeer if they peer,
// RelNone otherwise.
func (g *Graph) Rel(a, b ASN) Rel {
	adj := &g.adj[a]
	for _, p := range adj.providers {
		if p == b {
			return RelProvider
		}
	}
	for _, c := range adj.customers {
		if c == b {
			return RelCustomer
		}
	}
	for _, p := range adj.peers {
		if p == b {
			return RelPeer
		}
	}
	return RelNone
}

// Providers returns the providers of a. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Providers(a ASN) []ASN { return g.adj[a].providers }

// Customers returns the customers of a. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Customers(a ASN) []ASN { return g.adj[a].customers }

// Peers returns the peers of a. The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) Peers(a ASN) []ASN { return g.adj[a].peers }

// Neighbors appends all neighbors of a to dst and returns it.
func (g *Graph) Neighbors(dst []ASN, a ASN) []ASN {
	adj := &g.adj[a]
	dst = append(dst, adj.providers...)
	dst = append(dst, adj.peers...)
	dst = append(dst, adj.customers...)
	return dst
}

// Degree returns the total number of neighbors of a.
func (g *Graph) Degree(a ASN) int {
	adj := &g.adj[a]
	return len(adj.providers) + len(adj.customers) + len(adj.peers)
}

// IsMultihomed reports whether a has two or more providers.
func (g *Graph) IsMultihomed(a ASN) bool { return len(g.adj[a].providers) >= 2 }

// IsTier1 reports whether a has no providers. In generated topologies the
// tier-1 ASes form a full peering clique.
func (g *Graph) IsTier1(a ASN) bool { return len(g.adj[a].providers) == 0 }

// Tier1s returns all provider-free ASes in ascending order.
func (g *Graph) Tier1s() []ASN {
	var t []ASN
	for a := 0; a < g.n; a++ {
		if g.IsTier1(ASN(a)) {
			t = append(t, ASN(a))
		}
	}
	return t
}

// EdgeCount returns the number of distinct links (provider + peer).
func (g *Graph) EdgeCount() int {
	cp, pp := 0, 0
	for a := 0; a < g.n; a++ {
		cp += len(g.adj[a].providers)
		pp += len(g.adj[a].peers)
	}
	return cp + pp/2
}

// Links returns every link once, customer-provider links as (customer,
// provider, RelProvider) and peer links as (min, max, RelPeer), sorted.
func (g *Graph) Links() []Link {
	var links []Link
	for a := 0; a < g.n; a++ {
		for _, p := range g.adj[a].providers {
			links = append(links, Link{A: ASN(a), B: p, Rel: RelProvider})
		}
		for _, p := range g.adj[a].peers {
			if ASN(a) < p {
				links = append(links, Link{A: ASN(a), B: p, Rel: RelPeer})
			}
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	return links
}

// Link is one topology edge. For Rel == RelProvider, B is the provider of
// A; for Rel == RelPeer the order of A and B carries no meaning.
type Link struct {
	A, B ASN
	Rel  Rel
}

// String renders the link in "A|B|rel" form.
func (l Link) String() string { return fmt.Sprintf("%d|%d|%s", l.A, l.B, l.Rel) }

// Validate checks structural invariants: the customer-provider digraph must
// be acyclic (the paper's standing assumption, which holds for the real
// Internet), and adjacency lists must be mutually consistent.
func (g *Graph) Validate() error {
	// Consistency of the three adjacency lists.
	for a := 0; a < g.n; a++ {
		for _, p := range g.adj[a].providers {
			if g.Rel(p, ASN(a)) != RelCustomer {
				return fmt.Errorf("topology: %d lists %d as provider but reverse edge missing", a, p)
			}
		}
		for _, p := range g.adj[a].peers {
			if g.Rel(p, ASN(a)) != RelPeer {
				return fmt.Errorf("topology: %d lists %d as peer but reverse edge missing", a, p)
			}
		}
	}
	if cycle := g.providerCycle(); cycle != nil {
		return fmt.Errorf("topology: customer-provider cycle %v", cycle)
	}
	return nil
}

// providerCycle returns one cycle in the customer->provider digraph, or nil
// if the hierarchy is acyclic.
func (g *Graph) providerCycle() []ASN {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make([]int8, g.n)
	parent := make([]ASN, g.n)
	for i := range parent {
		parent[i] = -1
	}
	// Iterative DFS to survive deep hierarchies.
	type frame struct {
		node ASN
		next int
	}
	for start := 0; start < g.n; start++ {
		if state[start] != white {
			continue
		}
		stack := []frame{{node: ASN(start)}}
		state[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			provs := g.adj[f.node].providers
			if f.next < len(provs) {
				p := provs[f.next]
				f.next++
				switch state[p] {
				case white:
					state[p] = gray
					parent[p] = f.node
					stack = append(stack, frame{node: p})
				case gray:
					// Found a cycle: walk parents from f.node back to p.
					cycle := []ASN{p}
					for v := f.node; v != p && v != -1; v = parent[v] {
						cycle = append(cycle, v)
					}
					return cycle
				}
				continue
			}
			state[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// Tiers classifies every AS by its shortest provider-hop distance to a
// tier-1 AS: tier-1 ASes get tier 1, their direct customers tier 2, and so
// on. ASes that cannot reach a tier-1 (impossible in validated topologies)
// get tier 0.
func (g *Graph) Tiers() []int {
	tier := make([]int, g.n)
	queue := make([]ASN, 0, g.n)
	for a := 0; a < g.n; a++ {
		if g.IsTier1(ASN(a)) {
			tier[a] = 1
			queue = append(queue, ASN(a))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range g.adj[v].customers {
			if tier[c] == 0 {
				tier[c] = tier[v] + 1
				queue = append(queue, c)
			}
		}
	}
	return tier
}

// FirstMultihomedAncestor returns, for a single-homed AS s, the first
// multi-homed AS on its provider chain (following the lowest-numbered
// provider at each single-homed hop, which is deterministic). If s itself
// is multi-homed it is returned unchanged. The boolean is false if the
// chain reaches a single-homed tier-1 (no multi-homed ancestor exists) or
// if s is an isolated/tier-1 AS.
//
// The paper uses this to extend the Φ disjointness metric to single-homed
// ASes: Φ(s) = Φ(m) where m is s's first multi-homed (direct or indirect)
// provider.
func (g *Graph) FirstMultihomedAncestor(s ASN) (ASN, bool) {
	v := s
	for hop := 0; hop <= g.n; hop++ {
		if g.IsMultihomed(v) {
			return v, true
		}
		if len(g.adj[v].providers) == 0 {
			return v, false
		}
		v = g.adj[v].providers[0]
	}
	return s, false
}
