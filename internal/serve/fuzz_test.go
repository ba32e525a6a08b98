package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// Step kinds of FuzzAdminEvents: the first byte of a step picks one, the
// second picks its link or AS.
const (
	stepReplay      = iota // the replay script's next event, as Run applies it
	stepFailLink           // admin fail-link on a link the script touches
	stepRestoreLink        // admin restore-link on such a link
	stepFailNode           // admin fail-node
	stepUnknownAS          // admin fail-link naming an AS the graph lacks
	stepNonLink            // admin fail-link on two ASes with no link
	stepBadBody            // malformed JSON, an unknown field or an unknown op
	stepOversized          // a body over maxAdminBody
	stepKinds
)

// FuzzAdminEvents interleaves admin requests with the replay script on
// one in-process server (200 ASes, 2 destinations). The input decodes
// into at most 16 steps of two bytes each. Every admin answer must be
// 200, 400, 409 or 413; the epoch advances exactly when a step's event
// applies (a model of link and AS state says when); and after every step
// each shard's State and published snapshot equal a from-scratch
// convergence over the applied events.
func FuzzAdminEvents(f *testing.F) {
	// The reproduction: the admin fails the script's first failed link,
	// then the replay reaches it. Then a mix of every step kind.
	f.Add([]byte{stepFailLink, 0, stepReplay, 0, stepReplay, 0, stepReplay, 0})
	f.Add([]byte{stepReplay, 0, stepRestoreLink, 0, stepReplay, 0, stepReplay, 0, stepReplay, 0})
	f.Add([]byte{stepUnknownAS, 0, stepNonLink, 3, stepBadBody, 1, stepBadBody, 2, stepOversized, 0, stepFailNode, 9, stepReplay, 0})
	f.Add([]byte{stepFailLink, 1, stepFailLink, 1, stepRestoreLink, 1, stepRestoreLink, 1, stepReplay, 0, stepReplay, 0})

	g := testGraphSeed(f, 200, 42)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(Config{Graph: g, Scenario: scenario.FlapStorm, Dests: 2, Seed: 7, Interval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		var links []scenario.Event
		for _, ev := range s.script {
			if ev.Op == scenario.OpFailLink {
				links = append(links, ev)
			}
		}
		m := newLinkState()
		ref := s.eng.NewState()
		var applied []scenario.Event
		next := 0
		for i := 0; i+1 < len(data) && i < 32; i += 2 {
			kind, arg := int(data[i])%stepKinds, int(data[i+1])
			var ev scenario.Event
			body := ""
			switch kind {
			case stepReplay:
				ev = s.script[next%len(s.script)]
				next++
			case stepFailLink, stepRestoreLink:
				op := scenario.OpFailLink
				if kind == stepRestoreLink {
					op = scenario.OpRestoreLink
				}
				l := links[arg%len(links)]
				ev = scenario.Event{Op: op, A: l.A, B: l.B}
				body = linkBody(s, op, ev)
			case stepFailNode:
				ev = scenario.Event{Op: scenario.OpFailNode, Node: topology.ASN(arg % s.g.Len())}
				body = fmt.Sprintf(`{"op":"fail-node","node":%d}`, s.g.OriginalASN(ev.Node))
			case stepUnknownAS:
				body = fmt.Sprintf(`{"op":"fail-link","a":%d,"b":%d}`, s.g.OriginalASN(links[0].A), int64(1)<<40+int64(arg))
			case stepNonLink:
				a := topology.ASN(arg % s.g.Len())
				b := (a + 1) % topology.ASN(s.g.Len())
				for s.g.Rel(a, b) != topology.RelNone || a == b {
					b = (b + 1) % topology.ASN(s.g.Len())
				}
				body = fmt.Sprintf(`{"op":"fail-link","a":%d,"b":%d}`, s.g.OriginalASN(a), s.g.OriginalASN(b))
			case stepBadBody:
				body = []string{`{"op":`, `{"op":"fail-link","a":1,"b":2,"c":3}`, `{"op":"drop-table"}`, `[]`}[arg%4]
			case stepOversized:
				body = `{"op":"fail-link","pad":"` + strings.Repeat("x", maxAdminBody) + `"}`
			}
			valid := kind == stepReplay || kind == stepFailLink || kind == stepRestoreLink || kind == stepFailNode
			want := valid && m.applicable(ev)
			epoch := s.Epoch()
			if kind == stepReplay {
				if err := s.replay(ev); err != nil {
					t.Fatalf("step %d: replay %v: %v", i/2, ev, err)
				}
			} else {
				rec := adminPost(h, body)
				switch rec.Code {
				case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
				default:
					t.Fatalf("step %d: status %d for %s: %s", i/2, rec.Code, body, rec.Body)
				}
				if valid && (rec.Code == http.StatusOK) != want {
					t.Fatalf("step %d: status %d for %s, model applicable %v: %s", i/2, rec.Code, body, want, rec.Body)
				}
				if valid && !want && rec.Code != http.StatusConflict {
					t.Fatalf("step %d: status %d for a refused %s, want 409: %s", i/2, rec.Code, body, rec.Body)
				}
			}
			if want {
				m.apply(ev)
				applied = append(applied, ev)
			}
			if got := s.Epoch(); got != epoch+boolCount(want) {
				t.Fatalf("step %d (kind %d): epoch %d -> %d, applied %v", i/2, kind, epoch, got, want)
			}
			checkAgainstScratch(t, s, ref, applied, fmt.Sprintf("step %d", i/2))
		}
	})
}

func boolCount(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
