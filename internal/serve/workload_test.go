package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"stamp/internal/atlas"
	"stamp/internal/scenario"
)

// TestWorkloadOutputPinned pins the bytes of the three destination-
// sharded drivers — atlas.Run, atlas.Replay and serve's ApplyEvent —
// against hashes recorded before their shared workload draw, plane fold
// and per-event totals moved into one place. A refactor of those paths
// must leave every hash as it is; a hash that moves means some report
// or record changed.
func TestWorkloadOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("converges 1k-AS topologies")
	}
	g5 := testGraphSeed(t, 1000, 5)
	hash := func(t *testing.T, v any, want string) {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("sha256 = %s, want %s (%d bytes: %.300s)", got, want, len(raw), raw)
		}
	}
	for _, tc := range []struct {
		kind, want string
	}{
		{"flap-storm", "de557b59b4ed416b91ef840c4a4208c312a1c4b67292937c257b51f1f0ebb238"},
		{"node-failure", "a6c39f558cf893ec4d92033c6af59b0de50a36815f1e92846a1b0d8dda172bed"},
	} {
		t.Run("run/"+tc.kind, func(t *testing.T) {
			rep, err := atlas.Run(atlas.Options{Graph: g5, Scenario: mustKind(t, tc.kind), Dests: 16, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			hash(t, rep, tc.want)
		})
	}
	t.Run("replay", func(t *testing.T) {
		rep, err := atlas.Replay(atlas.ReplayOptions{
			Graph: g5, Scenario: scenario.FlapStorm, Dests: 16, Seed: 5, Repeat: 3,
			Why: &atlas.WhySpec{Auto: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The report and its -why chain are pinned apart, so a moved hash
		// names which of the two changed.
		why := rep.Why
		rep.Why = nil
		hash(t, rep, "85253a108194a46b69b8bdad1faff2f2c5fb1bbbd7ae66713d445b0e008367a1")
		hash(t, why, "978e917f354a35f6f695a15739d31830783186e560250c3f882908283be9c580")
	})
	t.Run("serve", func(t *testing.T) {
		s, err := New(Config{Graph: testGraphSeed(t, 1000, 3), Scenario: scenario.FlapStorm, Dests: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]EventRecord, 0, len(s.script))
		for _, ev := range s.script {
			rec, err := s.ApplyEvent(ev)
			if err != nil {
				t.Fatal(err)
			}
			rec.ApplyMs = 0 // wall clock
			recs = append(recs, rec)
		}
		hash(t, recs, "1556534316f55eb1afa68e47f53706871f3ea184ae40b4657013f88a2ac30709")
	})
}

// TestServeDrawsReplayWorkload: for one (graph, scenario, seed), `stamp
// serve` shards the destinations atlas.Replay reports, in the same
// order, and cycles the script whose events Replay's per-event curve
// lists.
func TestServeDrawsReplayWorkload(t *testing.T) {
	g := testGraph(t, 400)
	for _, name := range []string{"flap-storm", "link-flap", "node-failure"} {
		t.Run(name, func(t *testing.T) {
			kind := mustKind(t, name)
			s, err := New(Config{Graph: g, Scenario: kind, Dests: 6, Seed: 11, Repeat: 1})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := atlas.Replay(atlas.ReplayOptions{Graph: g, Scenario: kind, Dests: 6, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if len(s.shards) != len(rep.PerDest) {
				t.Fatalf("serve has %d shards, replay %d dests", len(s.shards), len(rep.PerDest))
			}
			for i, sh := range s.shards {
				if sh.dest != rep.PerDest[i].Dest {
					t.Errorf("shard %d: serve dest %d, replay dest %d", i, sh.dest, rep.PerDest[i].Dest)
				}
			}
			if len(s.script) != len(rep.PerEvent) {
				t.Fatalf("serve script has %d events, replay %d", len(s.script), len(rep.PerEvent))
			}
			for i, ev := range s.script {
				if e := rep.PerEvent[i]; ev.Op.String() != e.Op || ev.At != e.At {
					t.Errorf("event %d: serve %v at %v, replay %s at %v", i, ev.Op, ev.At, e.Op, e.At)
				}
			}
		})
	}
}

// mustKind parses a scenario's CLI spelling.
func mustKind(t *testing.T, name string) scenario.Kind {
	t.Helper()
	k, err := scenario.ParseKind(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
