package topology

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateValid(t *testing.T) {
	for _, n := range []int{50, 200, 1000} {
		g, err := GenerateDefault(n, 1)
		if err != nil {
			t.Fatalf("generate %d: %v", n, err)
		}
		if g.Len() != n {
			t.Errorf("Len = %d, want %d", g.Len(), n)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("generated graph invalid: %v", err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateDefault(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDefault(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("links differ at %d: %v vs %v", i, la[i], lb[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := GenerateDefault(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDefault(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := a.Links(), b.Links()
	if len(la) == len(lb) {
		same := true
		for i := range la {
			if la[i] != lb[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical topologies")
		}
	}
}

func TestGenerateTier1Clique(t *testing.T) {
	p := DefaultGenParams(400, 3)
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	t1 := g.Tier1s()
	if len(t1) != p.Tier1 {
		t.Fatalf("tier-1 count = %d, want %d", len(t1), p.Tier1)
	}
	for i, a := range t1 {
		for _, b := range t1[i+1:] {
			if g.Rel(a, b) != RelPeer {
				t.Errorf("tier-1 ASes %d and %d not peered", a, b)
			}
		}
	}
}

func TestGenerateMultihomingRate(t *testing.T) {
	p := DefaultGenParams(2000, 5)
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	multi, nonTier1 := 0, 0
	for a := 0; a < g.Len(); a++ {
		if g.IsTier1(ASN(a)) {
			continue
		}
		nonTier1++
		if g.IsMultihomed(ASN(a)) {
			multi++
		}
	}
	rate := float64(multi) / float64(nonTier1)
	// MultihomeProb is 0.78; allow slack for the MaxProviders cap and
	// small attachment pools early in generation.
	if rate < 0.6 || rate > 0.95 {
		t.Errorf("multihoming rate = %.2f, want ~0.78", rate)
	}
}

func TestGenerateEveryoneReachesTier1(t *testing.T) {
	g, err := GenerateDefault(800, 11)
	if err != nil {
		t.Fatal(err)
	}
	tiers := g.Tiers()
	for a, tier := range tiers {
		if tier == 0 {
			t.Errorf("AS %d cannot reach any tier-1", a)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenParams{N: 2, Tier1: 1, MaxProviders: 1}); err == nil {
		t.Error("tiny N accepted")
	}
	if _, err := Generate(GenParams{N: 100, Tier1: 100, MaxProviders: 1}); err == nil {
		t.Error("Tier1 >= N accepted")
	}
	if _, err := Generate(GenParams{N: 100, Tier1: 5, MaxProviders: 0}); err == nil {
		t.Error("MaxProviders 0 accepted")
	}
}

// TestGenerateAcyclicProperty property-checks acyclicity and adjacency
// consistency over random generator parameters.
func TestGenerateAcyclicProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := 50 + int(nRaw%400)
		g, err := GenerateDefault(n, seed)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// graphFingerprint hashes everything a consumer can observe of a
// generated graph: the sorted link list and, per AS, the provider,
// peer and customer lists in adjacency (insertion) order — the order
// the simulators iterate, so it is part of the reproducibility
// contract, not just the link set.
func graphFingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, l := range g.Links() {
		put(int(l.A))
		put(int(l.B))
		put(int(l.Rel))
	}
	for a := 0; a < g.Len(); a++ {
		for _, list := range [][]ASN{g.Providers(ASN(a)), g.Peers(ASN(a)), g.Customers(ASN(a))} {
			put(len(list))
			for _, b := range list {
				put(int(b))
			}
		}
	}
	return h.Sum64()
}

// TestGenerateFingerprintPinned pins the generator's output byte for
// byte: the values were taken from the O(limit)-scan preferentialPick
// this file's Fenwick-tree sampler replaced, so any drift in RNG
// consumption or tie-breaking shows up here.
func TestGenerateFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{60, 1, 0x185d0feab42ab7a0},
		{300, 7, 0x4cf1efdc9855cd02},
		{1000, 42, 0xa54a16c3453826c6},
		{2500, 3, 0xc121b7a5df12db77},
		{5000, 11, 0x9cd1c0788844bb6f},
	} {
		g, err := GenerateDefault(tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := graphFingerprint(g); got != tc.want {
			t.Errorf("GenerateDefault(%d, %d) fingerprint = %#x, want %#x", tc.n, tc.seed, got, tc.want)
		}
	}
}
