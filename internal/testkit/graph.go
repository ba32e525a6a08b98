package testkit

import (
	"sort"

	"stamp/internal/topology"
)

// WithoutLinks returns a copy of g with the given undirected links
// removed. Unknown links are ignored. The copy is re-validated by
// construction (removing links cannot create provider cycles).
func WithoutLinks(g *topology.Graph, links [][2]topology.ASN) *topology.Graph {
	dead := make(map[[2]topology.ASN]bool, len(links))
	for _, l := range links {
		a, b := l[0], l[1]
		if a > b {
			a, b = b, a
		}
		dead[[2]topology.ASN{a, b}] = true
	}
	isDead := func(a, b topology.ASN) bool {
		if a > b {
			a, b = b, a
		}
		return dead[[2]topology.ASN{a, b}]
	}
	c := topology.NewGraph(g.Len())
	for a := topology.ASN(0); int(a) < g.Len(); a++ {
		for _, p := range g.Providers(a) {
			if !isDead(a, p) {
				must(c.AddProviderLink(a, p))
			}
		}
		for _, p := range g.Peers(a) {
			if a < p && !isDead(a, p) {
				must(c.AddPeerLink(a, p))
			}
		}
	}
	return c
}

// must panics on an error that a copy of a valid graph cannot produce.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// CustomerCone returns the set of ASes in v's customer cone (v itself
// included): everyone reachable by repeatedly descending provider-to-
// customer links. Cone sizes drive which ASes count as "large" in
// Internet economics.
func CustomerCone(g *topology.Graph, v topology.ASN) []topology.ASN {
	seen := make(map[topology.ASN]bool)
	var out []topology.ASN
	stack := []topology.ASN{v}
	seen[v] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, x)
		for _, c := range g.Customers(x) {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
