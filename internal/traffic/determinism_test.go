package traffic

import (
	"testing"

	"stamp/internal/sim"
	"stamp/internal/topology"
)

// TestSimulationDeterminism: identical seeds must produce identical
// simulations, in-process, for every protocol. (Cross-process determinism
// additionally requires that no map iteration order leaks into event or
// RNG-consumption order; the generator and R-BGP purge paths are the two
// places that were bitten by this — see generator.go and rbgp purgeByCause.)
func TestSimulationDeterminism(t *testing.T) {
	g := genGraph(t, 200, 4)
	dest := topology.ASN(13)
	for _, proto := range AllProtocols() {
		type snap struct {
			events int
			msgs   int64
		}
		var snaps []snap
		for rep := 0; rep < 2; rep++ {
			in := newInstance(proto, g, sim.DefaultParams(), 4, dest, nil)
			if _, err := in.e.Run(); err != nil {
				t.Fatal(err)
			}
			if err := in.FailLink(dest, g.Providers(dest)[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := in.e.Run(); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap{events: in.e.Events(), msgs: in.net.MessagesSent})
		}
		if snaps[0] != snaps[1] {
			t.Errorf("%v: non-deterministic simulation: %+v vs %+v", proto, snaps[0], snaps[1])
		}
	}
}

// TestSmokeInitialConvergence checks that all four protocols converge on
// a generated topology and deliver packets from every AS afterwards.
func TestSmokeInitialConvergence(t *testing.T) {
	g := genGraph(t, 120, 7)
	for _, proto := range AllProtocols() {
		in := newInstance(proto, g, sim.DefaultParams(), 11, 5, nil)
		if _, err := in.e.Run(); err != nil {
			t.Fatalf("%v: initial convergence: %v", proto, err)
		}
		var w Walk
		in.classify(&w)
		bad := len(w.Status) - w.Delivered()
		if bad != 0 {
			t.Errorf("%v: %d ASes cannot reach the destination after convergence", proto, bad)
		}
	}
}
