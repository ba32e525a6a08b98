package traffic

import (
	"encoding/json"
	"testing"
	"time"

	"stamp/internal/scenario"
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

// TestRunSimQuietScriptNoLoss: with no failure events, every tick of
// every protocol delivers all flows and the loss integral is zero.
func TestRunSimQuietScriptNoLoss(t *testing.T) {
	g := genGraph(t, 120, 7)
	script := scenario.Script{Name: "none", Dest: 5}
	for _, proto := range AllProtocols() {
		cur, err := RunSim(SimOpts{
			G: g, Proto: proto, Script: script,
			Flows: 3, Tick: 100 * time.Millisecond, Ticks: 10, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if cur.LostPacketTicks != 0 {
			t.Errorf("%v: lost %d packet-ticks on a quiet network", proto, cur.LostPacketTicks)
		}
		if cur.EverAffected != 0 {
			t.Errorf("%v: %d sources affected on a quiet network", proto, cur.EverAffected)
		}
		wantDelivered := float64(g.Len() * 3)
		for i := 0; i < cur.Delivered.Len(); i++ {
			if cur.Delivered.Sum(i) != wantDelivered {
				t.Fatalf("%v: tick %d delivered %g packets, want %g", proto, i, cur.Delivered.Sum(i), wantDelivered)
			}
		}
		if got := len(cur.Final.Status) - cur.Final.Delivered(); got != 0 {
			t.Errorf("%v: %d sources undelivered at the converged fixpoint", proto, got)
		}
	}
}

// TestRunSimFailureProducesCurve: a single link failure must produce a
// nonzero loss window for BGP that ends by the converged fixpoint (the
// destination is multi-homed, so the data plane heals).
func TestRunSimFailureProducesCurve(t *testing.T) {
	g := genGraph(t, 150, 3)
	script, err := scenario.Named("link-failure", g, 9)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := RunSim(SimOpts{
		G: g, Proto: BGP, Script: script, Seed: 21,
		Tick: 25 * time.Millisecond, Ticks: 2400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cur.LostPacketTicks == 0 {
		t.Error("BGP lost no packet-ticks across a link failure")
	}
	if cur.EverAffected == 0 {
		t.Error("no source ever affected across a link failure")
	}
	if cur.TransientLostPacketTicks == 0 || cur.TransientLostPacketTicks > cur.LostPacketTicks {
		t.Errorf("transient loss integral %d out of range (total %d)",
			cur.TransientLostPacketTicks, cur.LostPacketTicks)
	}
	if got := len(cur.Final.Status) - cur.Final.Delivered(); got != 0 {
		t.Errorf("%d sources still undelivered after full re-convergence", got)
	}
}

// TestRunSimDeterministic: identical options must produce byte-identical
// curves (JSON), including across walker scratch reuse.
func TestRunSimDeterministic(t *testing.T) {
	g := genGraph(t, 120, 5)
	script, err := scenario.Named("two-links-shared", g, 4)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	for rep := 0; rep < 2; rep++ {
		cur, err := RunSim(SimOpts{
			G: g, Proto: STAMP, Script: script, Seed: 17,
			Tick: 500 * time.Millisecond, Ticks: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(cur)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, b)
	}
	if string(snaps[0]) != string(snaps[1]) {
		t.Errorf("same options gave different curves:\n%s\n%s", snaps[0], snaps[1])
	}
}

// TestRunSimLinkFlapSwitchOnce: under repeated flapping of one
// destination provider link, STAMP's switch-once data plane must lose
// strictly fewer packet-ticks than BGP facing the same flaps — the §5.1
// deliverability claim in its sharpest form.
func TestRunSimLinkFlapSwitchOnce(t *testing.T) {
	g := genGraph(t, 150, 3)
	script, err := scenario.Named("link-flap", g, 6)
	if err != nil {
		t.Fatal(err)
	}
	lost := map[Protocol]int64{}
	for _, proto := range []Protocol{BGP, STAMP} {
		cur, err := RunSim(SimOpts{
			G: g, Proto: proto, Script: script, Seed: 31,
			Tick: 25 * time.Millisecond, Ticks: 2400,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		lost[proto] = cur.LostPacketTicks
	}
	t.Logf("link-flap packet-ticks lost: BGP=%d STAMP=%d", lost[BGP], lost[STAMP])
	if lost[STAMP] >= lost[BGP] {
		t.Errorf("STAMP lost %d packet-ticks vs BGP's %d under link flap; switch-once should win",
			lost[STAMP], lost[BGP])
	}
}
