package atlas

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"

	"stamp/internal/scenario"
)

// TestReplayByteIdenticalAcrossWorkers is the subsystem-level
// determinism gate for the incremental path: the replay report marshals
// to identical JSON for any worker count.
func TestReplayByteIdenticalAcrossWorkers(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	var snaps [][]byte
	for _, workers := range []int{1, 8} {
		rep, err := Replay(ReplayOptions{
			Graph: g, Scenario: scenario.FlapStorm, Repeat: 3, Dests: 8, Seed: 42, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, raw)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("atlas Replay differs across worker counts:\n%.400s\n%.400s", snaps[0], snaps[1])
	}
}

// TestReplayMatchesRunWorkload: Replay derives its script and shard set
// with the same seed streams as Run, so the two views describe the same
// workload instance — same event count, same destination order.
func TestReplayMatchesRunWorkload(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	run, err := Run(Options{Graph: g, Scenario: scenario.FlapStorm, Dests: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(ReplayOptions{Graph: g, Scenario: scenario.FlapStorm, Dests: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != run.Events {
		t.Fatalf("replay saw %d events, run %d — seed streams diverged", rep.Events, run.Events)
	}
	if len(rep.PerDest) != len(run.PerDest) {
		t.Fatalf("replay %d dests, run %d", len(rep.PerDest), len(run.PerDest))
	}
	for i := range rep.PerDest {
		if rep.PerDest[i].Dest != run.PerDest[i].Dest {
			t.Fatalf("shard %d: replay dest %d, run dest %d", i, rep.PerDest[i].Dest, run.PerDest[i].Dest)
		}
		// The stream's final topology equals the grouped run's, so the
		// fixpoint-derived finals must agree even though windows differ.
		if rep.PerDest[i].StampUnreachableFinal != run.PerDest[i].StampUnreachableFinal {
			t.Fatalf("shard %d: replay final %d, run final %d", i,
				rep.PerDest[i].StampUnreachableFinal, run.PerDest[i].StampUnreachableFinal)
		}
	}
	if rep.TotalEvents != rep.Events || len(rep.PerEvent) != rep.TotalEvents {
		t.Fatalf("stream bookkeeping off: events %d, total %d, per-event %d",
			rep.Events, rep.TotalEvents, len(rep.PerEvent))
	}
}

// TestShardPoolsMakeOneStatePerWorker: Run and Replay create at most one
// slab State per worker, however many shards they converge — also when
// collections run between shards (which empty a sync.Pool) and when a
// worker goroutine moves between Ps.
func TestShardPoolsMakeOneStatePerWorker(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	var made atomic.Int64
	newShardState = func(e *Engine) *State {
		made.Add(1)
		return e.NewState()
	}
	defer func() { newShardState = (*Engine).NewState }()
	gc := func(int, int) { runtime.GC(); runtime.GC() }
	for _, workers := range []int{1, 2} {
		made.Store(0)
		if _, err := Run(Options{Graph: g, Scenario: scenario.FlapStorm, Dests: 24, Seed: 3, Workers: workers, Progress: gc}); err != nil {
			t.Fatal(err)
		}
		if n := made.Load(); n > int64(workers) {
			t.Errorf("Run at %d workers made %d States", workers, n)
		}
		made.Store(0)
		if _, err := Replay(ReplayOptions{Graph: g, Scenario: scenario.FlapStorm, Dests: 24, Seed: 3, Workers: workers, Progress: gc}); err != nil {
			t.Fatal(err)
		}
		if n := made.Load(); n > int64(workers) {
			t.Errorf("Replay at %d workers made %d States", workers, n)
		}
	}
}

// TestReplayRejects: single-origin workloads cannot shard, and only
// restore-balanced scripts may repeat.
func TestReplayRejects(t *testing.T) {
	_, g := testGraph(t, 100, 1)
	if _, err := Replay(ReplayOptions{Graph: g, Scenario: scenario.PrefixWithdraw, Seed: 1}); err == nil {
		t.Fatal("expected an error for prefix-withdraw")
	}
	// A bare link failure never restores, so cycling it would fail an
	// already-down link.
	if _, err := Replay(ReplayOptions{Graph: g, Scenario: scenario.SingleLink, Repeat: 2, Seed: 1}); err == nil {
		t.Fatal("expected an error repeating an unbalanced script")
	}
	// Node failures are permanent; they cannot cycle either.
	if _, err := Replay(ReplayOptions{Graph: g, Scenario: scenario.NodeFailure, Repeat: 2, Seed: 1}); err == nil {
		t.Fatal("expected an error repeating a node-failure script")
	}
	// But a single pass over those same scripts is fine.
	if _, err := Replay(ReplayOptions{Graph: g, Scenario: scenario.SingleLink, Seed: 1, Dests: 2}); err != nil {
		t.Fatal(err)
	}
	// And flaps repeat cleanly.
	if _, err := Replay(ReplayOptions{Graph: g, Scenario: scenario.LinkFlap, Repeat: 3, Seed: 1, Dests: 2}); err != nil {
		t.Fatal(err)
	}
}
