package topology

import (
	"fmt"
	"io"
	"sort"
)

// DegreeBucket is one power-of-two cell of a degree distribution: the
// number of ASes whose total degree falls in [Lo, Hi].
type DegreeBucket struct {
	Lo, Hi int
	Count  int
}

// Stats summarizes structural properties of a topology — the sanity
// check `stamp topo -stats` prints so an ingested snapshot can be
// inspected (degree distribution, tier sizes, link classes) before an
// experiment is spent on it.
type Stats struct {
	ASes         int
	Links        int
	CPLinks      int // customer-provider links
	PeerLinks    int // settlement-free peerings
	Tier1s       int
	MaxTier      int
	TierSizes    []int // TierSizes[i] = ASes at tier i+1
	Multihomed   int
	MeanDegree   float64
	MaxDegree    int
	DegreeMin    int
	DegreeMedian int
	DegreeP90    int
	DegreeHist   []DegreeBucket // power-of-two buckets over total degree
	StubASes     int            // ASes with no customers
	MeanProvider float64
}

// ComputeStats gathers Stats for g.
func ComputeStats(g *Graph) Stats {
	s := Stats{ASes: g.Len(), Links: g.EdgeCount()}
	tiers := g.Tiers()
	degrees := make([]int, g.Len())
	totalDeg, totalProv := 0, 0
	for a := 0; a < g.Len(); a++ {
		v := ASN(a)
		d := g.Degree(v)
		degrees[a] = d
		totalDeg += d
		totalProv += len(g.Providers(v))
		s.CPLinks += len(g.Providers(v))
		s.PeerLinks += len(g.Peers(v))
		if g.IsTier1(v) {
			s.Tier1s++
		}
		if tiers[a] > s.MaxTier {
			s.MaxTier = tiers[a]
		}
		if g.IsMultihomed(v) {
			s.Multihomed++
		}
		if len(g.Customers(v)) == 0 {
			s.StubASes++
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.PeerLinks /= 2
	s.TierSizes = make([]int, s.MaxTier)
	for _, t := range tiers {
		if t >= 1 {
			s.TierSizes[t-1]++
		}
	}
	if g.Len() > 0 {
		s.MeanDegree = float64(totalDeg) / float64(g.Len())
	}
	// Mean providers over the ASes that have any (tier-1s by definition
	// have none).
	if owners := g.Len() - s.Tier1s; owners > 0 {
		s.MeanProvider = float64(totalProv) / float64(owners)
	}
	sort.Ints(degrees)
	if len(degrees) > 0 {
		s.DegreeMin = degrees[0]
		s.DegreeMedian = degrees[len(degrees)/2]
		s.DegreeP90 = degrees[int(0.9*float64(len(degrees)-1))]
	}
	// Power-of-two degree buckets: [0], [1], [2,3], [4,7], …
	s.DegreeHist = append(s.DegreeHist, DegreeBucket{Lo: 0, Hi: 0})
	for lo := 1; lo <= s.MaxDegree; lo *= 2 {
		s.DegreeHist = append(s.DegreeHist, DegreeBucket{Lo: lo, Hi: lo*2 - 1})
	}
	for _, d := range degrees {
		for i := range s.DegreeHist {
			if b := &s.DegreeHist[i]; d >= b.Lo && d <= b.Hi {
				b.Count++
				break
			}
		}
	}
	return s
}

// Print renders the stats as the aligned text block the CLI emits.
func (s Stats) Print(w io.Writer) {
	fmt.Fprintf(w, "ASes %d, links %d (%d customer-provider, %d peer)\n",
		s.ASes, s.Links, s.CPLinks, s.PeerLinks)
	fmt.Fprintf(w, "multihomed %d (%.1f%%), stubs %d, mean degree %.2f, mean providers %.2f\n",
		s.Multihomed, pct(s.Multihomed, s.ASes), s.StubASes, s.MeanDegree, s.MeanProvider)
	fmt.Fprint(w, "tiers:")
	for i, c := range s.TierSizes {
		fmt.Fprintf(w, " tier-%d=%d", i+1, c)
	}
	fmt.Fprintf(w, " (max tier %d)\n", s.MaxTier)
	fmt.Fprintf(w, "degree: min %d, median %d, p90 %d, max %d\n",
		s.DegreeMin, s.DegreeMedian, s.DegreeP90, s.MaxDegree)
	for _, b := range s.DegreeHist {
		if b.Count == 0 {
			continue
		}
		label := fmt.Sprintf("%d", b.Lo)
		if b.Hi > b.Lo {
			label = fmt.Sprintf("%d-%d", b.Lo, b.Hi)
		}
		fmt.Fprintf(w, "  degree %-9s %7d ASes (%5.1f%%)\n", label, b.Count, pct(b.Count, s.ASes))
	}
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
