package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// linkState models what atlas refuses: failing a link or an AS that is
// down, or restoring a link that is up. applicable reports whether ev
// would change it, and apply records ev.
type linkState struct {
	linkDown map[[2]topology.ASN]bool
	nodeDown map[topology.ASN]bool
}

func newLinkState() *linkState {
	return &linkState{linkDown: map[[2]topology.ASN]bool{}, nodeDown: map[topology.ASN]bool{}}
}

func linkOf(ev scenario.Event) [2]topology.ASN {
	if ev.A > ev.B {
		return [2]topology.ASN{ev.B, ev.A}
	}
	return [2]topology.ASN{ev.A, ev.B}
}

func (m *linkState) applicable(ev scenario.Event) bool {
	switch ev.Op {
	case scenario.OpFailLink:
		return !m.linkDown[linkOf(ev)]
	case scenario.OpRestoreLink:
		return m.linkDown[linkOf(ev)]
	case scenario.OpFailNode:
		return !m.nodeDown[ev.Node]
	}
	return true
}

func (m *linkState) apply(ev scenario.Event) {
	switch ev.Op {
	case scenario.OpFailLink, scenario.OpRestoreLink:
		m.linkDown[linkOf(ev)] = ev.Op == scenario.OpFailLink
	case scenario.OpFailNode:
		m.nodeDown[ev.Node] = true
	}
}

// checkAgainstScratch holds every shard to a from-scratch convergence
// over the events the server applied, in order: the shard's State
// (DiffStates) and its published snapshot, route for route, at the
// server's epoch.
func checkAgainstScratch(t testing.TB, s *Server, ref *atlas.State, applied []scenario.Event, label string) {
	t.Helper()
	for _, sh := range s.shards {
		if err := s.eng.ConvergeScratch(ref, sh.dest, applied); err != nil {
			t.Fatalf("%s: dest %d: ConvergeScratch: %v", label, sh.dest, err)
		}
		if d := atlas.DiffStates(ref, sh.st); d != nil {
			t.Fatalf("%s: dest %d: %d routes differ from a from-scratch convergence, first %v", label, sh.dest, len(d), d[0])
		}
		if got := sh.snap.epoch.Load(); got != s.Epoch() {
			t.Fatalf("%s: dest %d serves epoch %d, server epoch %d", label, sh.dest, got, s.Epoch())
		}
		for p := 0; p < atlas.PlaneCount; p++ {
			for a := int32(0); a < int32(s.g.Len()); a++ {
				k, d, next := ref.SnapshotRoute(p, a)
				if gk, gd, gnext := unpackRoute(sh.snap.routes[p][a].Load()); gk != k || gd != d || gnext != next {
					t.Fatalf("%s: dest %d plane %s AS %d: published (%d, %d, %d), from scratch (%d, %d, %d)",
						label, sh.dest, atlas.PlaneName(p), a, gk, gd, gnext, k, d, next)
				}
			}
		}
	}
}

// adminPost sends one POST /admin/event body to the in-process handler.
func adminPost(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/event", strings.NewReader(body)))
	return rec
}

func linkBody(s *Server, op scenario.Op, ev scenario.Event) string {
	return fmt.Sprintf(`{"op":%q,"a":%d,"b":%d}`, op.String(), s.g.OriginalASN(ev.A), s.g.OriginalASN(ev.B))
}

// replayServer boots the 300-AS flap-storm server of the reproduction:
// GenerateDefault seed 42, 2 destinations, seed 7, one replay cycle.
func replayServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Graph: testGraph(t, 300), Scenario: scenario.FlapStorm, Dests: 2, Seed: 7,
		Repeat: 1, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// expectReplay runs the model over the rest of the script: the events
// it applies, and how many it refuses.
func expectReplay(m *linkState, script []scenario.Event, applied []scenario.Event) ([]scenario.Event, int) {
	skipped := 0
	for _, ev := range script {
		if !m.applicable(ev) {
			skipped++
			continue
		}
		m.apply(ev)
		applied = append(applied, ev)
	}
	return applied, skipped
}

// TestReplaySkipsRefusedEvents: an admin request that fails the link the
// replay fails first, or that restores mid-replay a link the replay
// failed, turns a later replay event into one atlas refuses. The replay
// skips it with a replay-skipped record and completes; the epoch counts
// applied events only, and every shard, State and published snapshot,
// equals a from-scratch convergence over the applied events. The admin
// endpoint answers a refused event with 409 and the atlas reason alone.
func TestReplaySkipsRefusedEvents(t *testing.T) {
	t.Run("admin fails the first replayed link", func(t *testing.T) {
		s := replayServer(t)
		h := s.Handler()
		i := 0
		for s.script[i].Op != scenario.OpFailLink {
			i++
		}
		first := s.script[i]
		if rec := adminPost(h, linkBody(s, scenario.OpFailLink, first)); rec.Code != http.StatusOK {
			t.Fatalf("admin fail-link: status %d: %s", rec.Code, rec.Body)
		}
		rec := adminPost(h, linkBody(s, scenario.OpFailLink, first))
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusConflict {
			t.Fatalf("repeated admin fail-link: status %d, body %s, want 409", rec.Code, rec.Body)
		}
		if want := fmt.Sprintf("atlas: link %d--%d already down", first.A, first.B); body["error"] != want {
			t.Fatalf("409 reason %q, want %q", body["error"], want)
		}

		m := newLinkState()
		m.apply(first)
		applied, skipped := expectReplay(m, s.script, []scenario.Event{first})
		if skipped == 0 {
			t.Fatal("the replay refuses nothing; the reproduction needs a conflict")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Run(ctx); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got, want := s.Epoch(), uint64(len(applied)); got != want {
			t.Fatalf("epoch %d after the replay, want %d applied events (%d skipped)", got, want, skipped)
		}
		n := 0
		for _, ev := range s.events.Since(0) {
			if ev.Kind == "replay-skipped" {
				n++
				if !strings.Contains(ev.Detail, "already") || strings.Contains(ev.Detail, "runner") {
					t.Errorf("replay-skipped detail %q does not carry the atlas reason alone", ev.Detail)
				}
			}
		}
		if n != skipped {
			t.Fatalf("%d replay-skipped records, want %d", n, skipped)
		}
		checkAgainstScratch(t, s, s.eng.NewState(), applied, "after the replay")
	})

	t.Run("admin restores mid-replay", func(t *testing.T) {
		s := replayServer(t)
		h := s.Handler()
		m := newLinkState()
		ref := s.eng.NewState()
		var applied []scenario.Event
		restored := false
		for i, ev := range s.script {
			want := m.applicable(ev)
			if err := s.replay(ev); err != nil {
				t.Fatalf("replay event %d: %v", i, err)
			}
			if want {
				m.apply(ev)
				applied = append(applied, ev)
			}
			if s.Epoch() != uint64(len(applied)) {
				t.Fatalf("replay event %d (%v): epoch %d, want %d", i, ev, s.Epoch(), len(applied))
			}
			if !restored && ev.Op == scenario.OpFailLink && want {
				restore := scenario.Event{Op: scenario.OpRestoreLink, A: ev.A, B: ev.B}
				if rec := adminPost(h, linkBody(s, scenario.OpRestoreLink, ev)); rec.Code != http.StatusOK {
					t.Fatalf("admin restore-link: status %d: %s", rec.Code, rec.Body)
				}
				m.apply(restore)
				applied = append(applied, restore)
				restored = true
			}
			checkAgainstScratch(t, s, ref, applied, fmt.Sprintf("after replay event %d", i))
		}
		if !restored || s.Epoch() == uint64(len(s.script)+1) {
			t.Fatalf("no replay event was refused (epoch %d over %d script events and one admin restore)", s.Epoch(), len(s.script))
		}
	})
}
