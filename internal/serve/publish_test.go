package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/scenario"
)

// checkPublished is the publish differential: every shard's published
// buffer — which the writer patched forward from an image two events
// old, or copied — must equal a fresh full copy of the shard's engine
// state, plane by plane, and its reachability counters a fresh recount.
// Consecutive events publish alternate buffers, so calling this after
// every event checks both.
func checkPublished(t *testing.T, s *Server, label string) {
	t.Helper()
	want := s.newSnap()
	for _, sh := range s.shards {
		want.copyAll(sh.st)
		got := sh.pub.Load()
		if got.epoch != s.Epoch() {
			t.Fatalf("%s: dest %d serves epoch %d, server epoch %d", label, sh.dest, got.epoch, s.Epoch())
		}
		if got.window != sh.st.Windows() {
			t.Fatalf("%s: dest %d published at window %d, state is at %d", label, sh.dest, got.window, sh.st.Windows())
		}
		for p := 0; p < atlas.PlaneCount; p++ {
			if !reflect.DeepEqual(got.kind[p], want.kind[p]) || !reflect.DeepEqual(got.dist[p], want.dist[p]) ||
				!reflect.DeepEqual(got.next[p], want.next[p]) {
				t.Fatalf("%s: dest %d plane %s: published routes differ from a full copy of the state",
					label, sh.dest, atlas.PlaneName(p))
			}
		}
		if got.reachable != want.reachable || got.stampUnreachable != want.stampUnreachable {
			t.Fatalf("%s: dest %d counters: published reachable %v dark %d, recount %v dark %d",
				label, sh.dest, got.reachable, got.stampUnreachable, want.reachable, want.stampUnreachable)
		}
	}
}

func publishServer(t *testing.T, kind scenario.Kind, n, dests int) *Server {
	t.Helper()
	s, err := New(Config{
		Graph:    testGraph(t, n),
		Scenario: kind,
		Dests:    dests,
		Seed:     7,
		Repeat:   1, // one cycle: node failures are not repeatable
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPatchedPublishMatchesFullCopy replays every scenario kind serve
// accepts and checks the published snapshots after every event.
func TestPatchedPublishMatchesFullCopy(t *testing.T) {
	for _, kind := range []scenario.Kind{
		scenario.SingleLink, scenario.TwoLinksApart, scenario.TwoLinksShared,
		scenario.NodeFailure, scenario.LinkFlap, scenario.FlapStorm,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			s := publishServer(t, kind, 300, 3)
			checkPublished(t, s, "boot")
			for i, ev := range s.script {
				if _, err := s.ApplyEvent(ev); err != nil {
					t.Fatalf("event %d %v: %v", i, ev, err)
				}
				checkPublished(t, s, ev.String())
			}
			patched, full := s.metrics.publishPatched.Value(), s.metrics.publishFull.Value()
			if want := int64(len(s.shards) * (1 + len(s.script))); patched+full != want {
				t.Errorf("patched %d + full %d publishes, want %d (boot + one per shard per event)", patched, full, want)
			}
			if kind == scenario.FlapStorm && patched == 0 {
				t.Errorf("flap storm: no publish was patched (%d full copies)", full)
			}
		})
	}
}

// TestPublishFallsBackToFullCopy drives the two fallbacks an operator
// can meet: an event that re-roots a shard (its red and blue windows run
// dense, so no touched set exists), and a reader that pins the spare
// past the writer's patience (a fresh buffer has nothing to patch). Each
// must publish correct routes, leave a record, and give way to patching
// again afterwards.
func TestPublishFallsBackToFullCopy(t *testing.T) {
	s := publishServer(t, scenario.FlapStorm, 300, 3)
	// Warm both buffers of every shard so steady state is patching.
	for i := 0; i < 4; i++ {
		if _, err := s.ApplyEvent(s.script[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkPublished(t, s, "warm-up")
	sh := s.shards[0]
	locked := scenario.Event{Op: scenario.OpFailLink, A: sh.dest, B: s.g.Providers(sh.dest)[0]}
	unlocked := locked
	unlocked.Op = scenario.OpRestoreLink

	full := s.metrics.publishFull.Value()
	rec, err := s.ApplyEvent(locked)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Reroots == 0 {
		t.Fatalf("failing dest %d's locked provider link re-rooted no shard", sh.dest)
	}
	checkPublished(t, s, "re-root")
	if got := s.metrics.publishFull.Value() - full; got < int64(rec.Reroots) {
		t.Errorf("%d shards re-rooted but only %d publishes were full copies", rec.Reroots, got)
	}
	// The other buffer of a re-rooted shard still predates the re-root:
	// the next publish cannot patch across it either.
	if _, err := s.ApplyEvent(s.script[4]); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, s, "after re-root")
	if _, err := s.ApplyEvent(unlocked); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, s, "re-root back")

	// Two quiet events later every buffer is within two sparse windows of
	// its state again.
	for i := 5; i < 8; i++ {
		if _, err := s.ApplyEvent(s.script[i]); err != nil {
			t.Fatal(err)
		}
		checkPublished(t, s, "settling")
	}
	full, patched := s.metrics.publishFull.Value(), s.metrics.publishPatched.Value()
	if _, err := s.ApplyEvent(s.script[8]); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, s, "steady")
	if s.metrics.publishFull.Value() != full || s.metrics.publishPatched.Value() != patched+int64(len(s.shards)) {
		t.Errorf("steady state: full %d→%d patched %d→%d, want every shard patched",
			full, s.metrics.publishFull.Value(), patched, s.metrics.publishPatched.Value())
	}

	// A reader pins shard 0's spare through the next publish.
	pinned := sh.spare
	pinned.refs.Add(1)
	fallbacks := s.metrics.fallbacks.Value()
	full = s.metrics.publishFull.Value()
	if _, err := s.ApplyEvent(s.script[9]); err != nil {
		t.Fatal(err)
	}
	pinned.refs.Add(-1)
	checkPublished(t, s, "pinned spare")
	if s.metrics.fallbacks.Value() != fallbacks+1 || s.metrics.publishFull.Value() != full+1 {
		t.Errorf("pinned spare: fallbacks %d→%d, full copies %d→%d; want one more of each",
			fallbacks, s.metrics.fallbacks.Value(), full, s.metrics.publishFull.Value())
	}
	if sh.pub.Load() == pinned || sh.spare == pinned {
		t.Error("the pinned buffer is still in rotation")
	}
	for i := 10; i < 13; i++ {
		if _, err := s.ApplyEvent(s.script[i]); err != nil {
			t.Fatal(err)
		}
		checkPublished(t, s, "after pinned spare")
	}
}

// TestShardErrorPublishesNothing is the mixed-epoch regression: when one
// shard rejects an event, no shard may show the new epoch — publishing
// waits for every shard to settle — and the server must go on to apply
// the next valid event, with snapshots that match their states even
// though some shards settled a window that was never published.
func TestShardErrorPublishesNothing(t *testing.T) {
	s := publishServer(t, scenario.FlapStorm, 300, 4)
	for i := 0; i < 3; i++ {
		if _, err := s.ApplyEvent(s.script[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a link no shard has down and fail it behind the server's back
	// on one shard only: that shard will reject the event as a repeat,
	// the others will settle it.
	var ev scenario.Event
	for _, cand := range s.script {
		if cand.Op != scenario.OpFailLink {
			continue
		}
		fresh := true
		for _, prior := range s.script[:3] {
			fresh = fresh && !(prior.A == cand.A && prior.B == cand.B)
		}
		if fresh {
			ev = cand
			break
		}
	}
	if ev.Op != scenario.OpFailLink {
		t.Fatal("no unused fail-link event in the script")
	}
	odd := s.shards[2]
	if _, err := s.eng.ApplyEvent(odd.st, ev); err != nil {
		t.Fatal(err)
	}

	epoch, logSeq := s.Epoch(), s.events.LastSeq()
	if _, err := s.ApplyEvent(ev); err == nil {
		t.Fatal("event that one shard rejects was reported applied")
	}
	if s.Epoch() != epoch || s.events.LastSeq() != logSeq {
		t.Errorf("failed event moved the server: epoch %d→%d, event log %d→%d", epoch, s.Epoch(), logSeq, s.events.LastSeq())
	}
	for _, sh := range s.shards {
		if got := sh.pub.Load().epoch; got != epoch {
			t.Errorf("dest %d serves epoch %d after a failed event; every shard must still serve %d", sh.dest, got, epoch)
		}
	}

	// The next valid events apply cleanly on every shard: first the ones
	// whose buffers missed a window (full copies), then patching again.
	full := s.metrics.publishFull.Value()
	var next []scenario.Event
	for _, cand := range s.script[3:] {
		if !(cand.A == ev.A && cand.B == ev.B) && len(next) < 4 {
			next = append(next, cand)
		}
	}
	for i, nev := range next {
		rec, err := s.ApplyEvent(nev)
		if err != nil {
			t.Fatalf("valid event %v after a failed one: %v", nev, err)
		}
		if rec.Epoch != epoch+uint64(i)+1 {
			t.Errorf("event after the failed one published epoch %d, want %d", rec.Epoch, epoch+uint64(i)+1)
		}
		checkPublished(t, s, "after failed event")
	}
	if s.metrics.publishFull.Value() == full {
		t.Error("buffers that missed a window were not re-copied")
	}
}

// TestPublishMetricsExposed: the publish histogram and the
// patched/full/dense counters are on /metrics.
func TestPublishMetricsExposed(t *testing.T) {
	s := publishServer(t, scenario.FlapStorm, 300, 2)
	for i := 0; i < 4; i++ {
		if _, err := s.ApplyEvent(s.script[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"stamp_serve_publish_seconds_count 4\n",
		"stamp_serve_publish_patched_total ",
		"stamp_serve_publish_full_total ",
		"stamp_atlas_dense_windows_total ",
	} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
