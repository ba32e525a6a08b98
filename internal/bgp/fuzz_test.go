package bgp

import (
	"math/rand"
	"testing"

	"stamp/internal/sim"
	"stamp/internal/topology"
)

// TestSpeakerFuzz drives a speaker with random message sequences and
// checks its invariants after every step:
//
//   - the best route is Better-maximal over the Adj-RIB-In,
//   - no RIB entry contains the speaker's own AS,
//   - no RIB entry belongs to a down session,
//   - the speaker never panics.
func TestSpeakerFuzz(t *testing.T) {
	const self = topology.ASN(10)
	g := topology.NewGraph(11)
	for _, p := range []topology.ASN{0, 1, 2} {
		if err := g.AddProviderLink(self, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []topology.ASN{3, 4} {
		if err := g.AddProviderLink(c, self); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddPeerLink(self, 5); err != nil {
		t.Fatal(err)
	}
	nbrs := []topology.ASN{0, 1, 2, 3, 4, 5}

	rng := rand.New(rand.NewSource(31))
	e := sim.NewEngine(sim.DefaultParams(), 1)
	sp := NewSpeaker(self, ColorRed, g, e, func(topology.ASN, Msg) {})

	randomPath := func() []topology.ASN {
		n := 1 + rng.Intn(5)
		p := make([]topology.ASN, n)
		for i := range p {
			p[i] = topology.ASN(rng.Intn(11))
		}
		return p
	}

	down := map[topology.ASN]bool{}
	for step := 0; step < 5000; step++ {
		nbr := nbrs[rng.Intn(len(nbrs))]
		switch rng.Intn(10) {
		case 0:
			sp.PeerDown(nbr)
			down[nbr] = true
		case 1:
			sp.PeerUp(nbr)
			down[nbr] = false
		case 2:
			sp.HandleMsg(nbr, Msg{Withdraw: true, Color: ColorRed, CausedByLoss: true})
		case 3:
			sp.Originate()
		case 4:
			sp.StopOriginating()
		default:
			path := randomPath()
			if path[0] != nbr {
				path[0] = nbr
			}
			sp.HandleMsg(nbr, Msg{
				Route:        &Route{Path: path, Color: ColorRed, Lock: rng.Intn(2) == 0},
				Color:        ColorRed,
				CausedByLoss: rng.Intn(2) == 0,
			})
		}

		// Invariants.
		best := sp.Best()
		sp.RibInAll(func(from topology.ASN, r *Route) {
			if r.ContainsAS(self) {
				t.Fatalf("step %d: looped route in RIB: %v", step, r)
			}
			if down[from] {
				t.Fatalf("step %d: RIB entry from down session %d", step, from)
			}
			if Better(r, best) {
				t.Fatalf("step %d: best %v is not maximal, %v is better", step, best, r)
			}
		})
	}
	// Drain MRAI/settle timers accumulated during the fuzz.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSpeakerFuzzDeliverySequence replays a random but *valid* update
// sequence (one route per neighbor, FIFO) and checks that the final state
// depends only on the final message per neighbor.
func TestSpeakerFuzzDeliverySequence(t *testing.T) {
	const self = topology.ASN(5)
	g := topology.NewGraph(6)
	for _, p := range []topology.ASN{0, 1, 2} {
		if err := g.AddProviderLink(self, p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(37))

	type ev struct {
		nbr      topology.ASN
		withdraw bool
		path     []topology.ASN
	}
	var seq []ev
	finals := map[topology.ASN]*ev{}
	for i := 0; i < 200; i++ {
		nbr := topology.ASN(rng.Intn(3))
		e := ev{nbr: nbr, withdraw: rng.Intn(3) == 0}
		if !e.withdraw {
			e.path = []topology.ASN{nbr, topology.ASN(3 + rng.Intn(2))}
		}
		seq = append(seq, e)
		c := e
		finals[nbr] = &c
	}

	eng := sim.NewEngine(sim.DefaultParams(), 1)
	sp := NewSpeaker(self, ColorRed, g, eng, func(topology.ASN, Msg) {})
	for _, e := range seq {
		if e.withdraw {
			sp.HandleMsg(e.nbr, Msg{Withdraw: true, Color: ColorRed})
		} else {
			sp.HandleMsg(e.nbr, Msg{Route: &Route{Path: e.path, Color: ColorRed}, Color: ColorRed})
		}
	}
	for nbr, f := range finals {
		got := sp.RibIn(nbr)
		if f.withdraw {
			if got != nil {
				t.Errorf("nbr %d: RIB %v after final withdrawal", nbr, got)
			}
			continue
		}
		if got == nil || len(got.Path) != len(f.path) {
			t.Errorf("nbr %d: RIB %v, want path %v", nbr, got, f.path)
		}
	}
}

// RibIn returns the route learned from one neighbor (nil if none).
func (s *Speaker) RibIn(nbr topology.ASN) *Route {
	if p := s.peerOf(nbr); p != nil {
		return p.ribIn
	}
	return nil
}
