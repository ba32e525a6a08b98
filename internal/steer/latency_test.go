package steer

import (
	"testing"

	"stamp/internal/atlas"
	"stamp/internal/topology"
)

func genGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.GenerateDefault(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestModelDeterministicAcrossRepresentations: the same (graph, seed)
// must yield identical baselines whether the model is built from the
// adjacency-list topology or the atlas CSR view — the jitter hash
// depends only on normalized endpoints, never on adjacency order.
func TestModelDeterministicAcrossRepresentations(t *testing.T) {
	g := genGraph(t, 120, 7)
	ag, err := atlas.FromTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewModel(g, 42)
	m2 := NewModel(ag, 42)
	if m1.Links() != m2.Links() || m1.Links() != g.EdgeCount() {
		t.Fatalf("link counts: graph model %d, CSR model %d, topology %d", m1.Links(), m2.Links(), g.EdgeCount())
	}
	for _, l := range g.Links() {
		a, b := int32(l.A), int32(l.B)
		base := m1.BaselineMs(a, b)
		if base != m2.BaselineMs(a, b) {
			t.Fatalf("link %v: graph model %v, CSR model %v", l, base, m2.BaselineMs(a, b))
		}
		if base != m1.BaselineMs(b, a) {
			t.Fatalf("link %v: baseline not symmetric", l)
		}
		// Class band: transit links are cheaper than the peer floor can
		// reach, peers sit in their own band.
		if l.Rel == topology.RelPeer {
			if base < PeerBaseMs || base >= PeerBaseMs+PeerJitterMs {
				t.Fatalf("peer link %v: baseline %v outside [%v, %v)", l, base, PeerBaseMs, PeerBaseMs+PeerJitterMs)
			}
		} else {
			if base < TransitBaseMs || base >= TransitBaseMs+TransitJitterMs {
				t.Fatalf("transit link %v: baseline %v outside [%v, %v)", l, base, TransitBaseMs, TransitBaseMs+TransitJitterMs)
			}
		}
	}

	// A different seed reshuffles at least one baseline.
	m3 := NewModel(g, 43)
	changed := false
	for _, l := range g.Links() {
		if m1.BaselineMs(int32(l.A), int32(l.B)) != m3.BaselineMs(int32(l.A), int32(l.B)) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("reseeding left every baseline unchanged")
	}
}

// TestModelQualityOps: degrade multiplies, gray adds loss, clear and
// Reset restore, unknown links error.
func TestModelQualityOps(t *testing.T) {
	g := genGraph(t, 60, 9)
	m := NewModel(g, 1)
	l := g.Links()[0]
	a, b := l.A, l.B
	base := m.LinkLatMs(int32(a), int32(b))
	if base <= 0 {
		t.Fatalf("link %v has no baseline", l)
	}

	if err := m.DegradeLink(a, b, 4); err != nil {
		t.Fatal(err)
	}
	if got := m.LinkLatMs(int32(a), int32(b)); got != base*4 {
		t.Fatalf("degraded latency %v, want %v", got, base*4)
	}
	if err := m.GrayLink(a, b, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := m.LinkLossRate(int32(b), int32(a)); got != float64(float32(0.25)) {
		t.Fatalf("gray loss %v, want 0.25 (symmetric lookup)", got)
	}
	if err := m.ClearLink(a, b); err != nil {
		t.Fatal(err)
	}
	if got := m.LinkLatMs(int32(a), int32(b)); got != base {
		t.Fatalf("cleared latency %v, want baseline %v", got, base)
	}
	if got := m.LinkLossRate(int32(a), int32(b)); got != 0 {
		t.Fatalf("cleared loss %v, want 0", got)
	}

	if err := m.DegradeLink(a, b, 2); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if got := m.LinkLatMs(int32(a), int32(b)); got != base {
		t.Fatalf("Reset left latency %v, want %v", got, base)
	}

	// The graph generator never links an AS to itself, so (a, a) cannot
	// be a modeled link.
	if err := m.DegradeLink(a, a, 2); err == nil {
		t.Fatal("degrading a nonexistent link did not error")
	}
	if err := m.GrayLink(a, a, 0.5); err == nil {
		t.Fatal("graying a nonexistent link did not error")
	}
	if err := m.ClearLink(a, a); err == nil {
		t.Fatal("clearing a nonexistent link did not error")
	}
}

// BaselineMs returns the link's undegraded latency (0 for links the
// model does not know).
func (m *Model) BaselineMs(a, b int32) float64 {
	return float64(m.base[packLink(a, b)])
}

// Links returns the number of modeled links.
func (m *Model) Links() int { return len(m.base) }

// Reset clears all degradation state, returning every link to
// baseline.
func (m *Model) Reset() {
	clear(m.mult)
	clear(m.gray)
}
