package atlas

import (
	"testing"

	"stamp/internal/emu"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// TestEmuParityCappedN is the capped-N differential fixture between
// the atlas engine and the live emulation: the same topology booted as
// a real STAMP fleet (every AS two wire-protocol speakers) and
// converged on the atlas slabs must agree on reachability — an AS has
// service in the live red∪blue tables exactly when the atlas red∪blue
// planes serve it, and the BGP plane (already pinned hop-exact against
// StaticRoutes, which the message-level simulator provably converges
// to) covers the same set. Hop-exact per-color equality is not asserted:
// the live fleet's sticky color assignments are path-history dependent
// by design (core.Node's assigned map), while atlas models the steady
// state; set-level service parity is the invariant both must share.
func TestEmuParityCappedN(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live fleet")
	}
	const n = 80
	tg, err := topology.GenerateDefault(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromTopology(tg)
	if err != nil {
		t.Fatal(err)
	}
	dests, err := Destinations(g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	for _, dest := range dests {
		script := scenario.Script{Name: "steady-state", Dest: dest}
		live, err := emu.Run(emu.Options{Graph: tg, Transport: "pipe"}, script)
		if err != nil {
			t.Fatalf("dest %d: live fleet: %v", dest, err)
		}
		if _, err := eng.ConvergeDest(st, dest, nil); err != nil {
			t.Fatalf("dest %d: atlas: %v", dest, err)
		}
		for a := 0; a < n; a++ {
			liveServed := live.Tables.Red[a] != nil || live.Tables.Blue[a] != nil
			atlasServed := st.cur[planeRed][a].pref != prefNone || st.cur[planeBlue][a].pref != prefNone
			if liveServed != atlasServed {
				t.Errorf("dest %d AS %d: live served=%v (red=%v blue=%v), atlas served=%v",
					dest, a, liveServed, live.Tables.Red[a], live.Tables.Blue[a], atlasServed)
			}
			bgpServed := st.cur[planeBGP][a].pref != prefNone
			if liveServed != bgpServed {
				t.Errorf("dest %d AS %d: live served=%v but atlas BGP served=%v", dest, a, liveServed, bgpServed)
			}
		}
	}
}
