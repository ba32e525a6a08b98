package traffic

import (
	"math/rand"
	"testing"

	"stamp/internal/sim"
	"stamp/internal/topology"
)

// TestBGPPostFailureMatchesStatic: after arbitrary link failures, the
// converged BGP state must equal the static Gao-Rexford solution of the
// surviving topology. This is the strongest end-to-end check of the
// simulator: failure handling, withdrawal waves, MRAI-paced re-routing —
// all must land exactly on the analytic fixpoint.
func TestBGPPostFailureMatchesStatic(t *testing.T) {
	g := genGraph(t, 250, 83)
	rng := rand.New(rand.NewSource(3))
	dest := topology.ASN(21)

	in := newInstance(BGP, g, sim.DefaultParams(), 17, dest, nil)
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}

	// Fail a handful of random links (never disconnecting the dest
	// entirely: failing random non-critical links on a multihomed graph).
	links := g.Links()
	var failed [][2]topology.ASN
	for len(failed) < 5 {
		l := links[rng.Intn(len(links))]
		if err := in.FailLink(l.A, l.B); err != nil {
			continue // already failed
		}
		failed = append(failed, [2]topology.ASN{l.A, l.B})
	}
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}

	masked := g.WithoutLinks(failed)
	want := topology.StaticRoutes(masked, dest)
	mismatches := 0
	for a := 0; a < g.Len(); a++ {
		if topology.ASN(a) == dest {
			continue
		}
		best := in.bgpNodes[a].Sp.Best()
		switch {
		case best == nil:
			if want[a] != nil {
				mismatches++
				if mismatches < 5 {
					t.Logf("AS %d: sim has no route, static has %v", a, want[a])
				}
			}
		case want[a] == nil:
			mismatches++
			if mismatches < 5 {
				t.Logf("AS %d: sim has %v, static unreachable", a, best.Path)
			}
		default:
			same := len(best.Path) == len(want[a])
			if same {
				for i := range want[a] {
					if best.Path[i] != want[a][i] {
						same = false
						break
					}
				}
			}
			if !same {
				mismatches++
				if mismatches < 5 {
					t.Logf("AS %d: sim %v, static %v", a, best.Path, want[a])
				}
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("%d ASes diverge from the static post-failure solution (failed links: %v)", mismatches, failed)
	}
}

// TestRouteWithdrawalEvent: the third event class of §2.2 — the origin
// withdraws the prefix everywhere. Every protocol must converge to a
// fully empty routing state.
func TestRouteWithdrawalEvent(t *testing.T) {
	g := genGraph(t, 200, 89)
	dest := topology.ASN(77)
	for _, proto := range AllProtocols() {
		in := newInstance(proto, g, sim.DefaultParams(), 19, dest, nil)
		if _, err := in.e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := in.Withdraw(dest); err != nil {
			t.Fatal(err)
		}
		if _, err := in.e.Run(); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		stale := 0
		for a := 0; a < g.Len(); a++ {
			switch proto {
			case BGP:
				if in.bgpNodes[a].Sp.Best() != nil {
					stale++
				}
			case RBGPNoRCI, RBGP:
				if in.rbgpNodes[a].Sp.Best() != nil {
					stale++
				}
			case STAMP:
				if in.stampNodes[a].Red.Best() != nil || in.stampNodes[a].Blue.Best() != nil {
					stale++
				}
			}
		}
		if stale > 0 {
			t.Errorf("%v: %d ASes retain routes after full withdrawal", proto, stale)
		}
	}
}

// TestLinkRecoveryEvent: a route addition event via link restoration —
// after fail + recover, BGP must return exactly to its pre-failure
// static solution.
func TestLinkRecoveryEvent(t *testing.T) {
	g := genGraph(t, 200, 97)
	dest := topology.ASN(50)
	in := newInstance(BGP, g, sim.DefaultParams(), 23, dest, nil)
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}
	p := g.Providers(dest)[0]
	if err := in.FailLink(dest, p); err != nil {
		t.Fatal(err)
	}
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := in.RestoreLink(dest, p); err != nil {
		t.Fatal(err)
	}
	if _, err := in.e.Run(); err != nil {
		t.Fatal(err)
	}
	want := topology.StaticRoutes(g, dest)
	for a := 0; a < g.Len(); a++ {
		if topology.ASN(a) == dest {
			continue
		}
		best := in.bgpNodes[a].Sp.Best()
		if best == nil {
			t.Fatalf("AS %d routeless after recovery", a)
		}
		if len(best.Path) != len(want[a]) {
			t.Errorf("AS %d: post-recovery %v, want %v", a, best.Path, want[a])
		}
	}
}
