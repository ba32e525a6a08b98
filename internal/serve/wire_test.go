package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"stamp/internal/atlas"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// wireGet serves one GET through h without a socket.
func wireGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec
}

// checkWire decodes a response into v and requires its body and headers
// to equal what writeJSON (encoding/json's Encoder with
// SetIndent("", "  ")) writes for the decoded value, plus, on a body
// longer than unchunkedMax, a Content-Length equal to the body's, which
// net/http works out itself for a shorter one.
func checkWire(t *testing.T, path string, got *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(got.Body.Bytes(), v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, v)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("GET %s body differs from encoding/json:\n got %q\nwant %q", path, got.Body, want.Body)
	}
	if got.Body.Len() > unchunkedMax {
		want.Header().Set("Content-Length", strconv.Itoa(got.Body.Len()))
	}
	if !maps.EqualFunc(got.Header(), want.Header(), func(a, b []string) bool { return fmt.Sprint(a) == fmt.Sprint(b) }) {
		t.Fatalf("GET %s headers %v, want %v", path, got.Header(), want.Header())
	}
}

// TestStateReadWireFormat pins the direct point and summary encoders to
// encoding/json byte for byte: every shard's summary, and point reads
// at every AS of every shard, which cover the three shapes a plane
// route takes — routed with a next hop, routeless (next omitted) and
// the origin itself (next omitted, dist 0).
func TestStateReadWireFormat(t *testing.T) {
	s := testServer(t, 300, 4)
	// A few storm events, then a node failure, so some planes hold no
	// route at all.
	for _, ev := range s.script[:4] {
		if _, err := s.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	failed := s.shards[0].dest + 1
	if _, err := s.ApplyEvent(scenario.Event{Op: scenario.OpFailNode, Node: failed}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var allRouted, routeless, origin int
	for _, sh := range s.shards {
		dest := s.g.OriginalASN(sh.dest)
		path := fmt.Sprintf("/state/%d", dest)
		var sum StateSummary
		checkWire(t, path, wireGet(t, h, path), &sum)
		if len(sum.Reachable) != 3 {
			t.Fatalf("summary %s: reachable %v", path, sum.Reachable)
		}
		for a := 0; a < s.g.Len(); a++ {
			asn := s.g.OriginalASN(topology.ASN(a))
			path := fmt.Sprintf("/state/%d?as=%d", dest, asn)
			var read StateRead
			checkWire(t, path, wireGet(t, h, path), &read)
			var none, hops int
			for _, pr := range read.Planes {
				if pr.Kind == "none" {
					none++
				} else if pr.Next != 0 {
					hops++
				}
			}
			switch {
			case asn == dest:
				origin++
			case none > 0:
				routeless++
			case hops == len(read.Planes):
				allRouted++
			}
		}
	}
	if allRouted == 0 || routeless == 0 || origin != len(s.shards) {
		t.Fatalf("coverage: %d routed on all planes, %d routeless on some plane, %d origins; want each > 0",
			allRouted, routeless, origin)
	}
}

// TestWhyWireFormat pins appendWhy to encoding/json byte for byte: why
// reads at every AS of every shard, at boot and after storm events and
// a node failure with a journal small enough to evict, which cover a
// chain with no hops, the origin hop, hops with next omitted, held hops
// and hops rendered from journal entries.
func TestWhyWireFormat(t *testing.T) {
	s, err := New(Config{Graph: testGraph(t, 300), Scenario: scenario.FlapStorm, Dests: 4, Seed: 7, ProvCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var empty, origin, noNext, held, journaled, long int
	check := func() {
		for _, sh := range s.shards {
			dest := s.g.OriginalASN(sh.dest)
			for a := 0; a < s.g.Len(); a++ {
				path := fmt.Sprintf("/state/%d/%d/why", dest, s.g.OriginalASN(topology.ASN(a)))
				var why WhyResponse
				rec := wireGet(t, h, path)
				if rec.Body.Len() > unchunkedMax {
					long++
				}
				checkWire(t, path, rec, &why)
				for _, c := range why.Chains {
					if len(c.Hops) == 0 {
						empty++
					}
					for _, hop := range c.Hops {
						if hop.Origin {
							origin++
						}
						if hop.Next == 0 {
							noNext++
						}
						if hop.Cause == atlas.CauseHeld {
							held++
						} else {
							journaled++
						}
					}
				}
			}
		}
	}
	check()
	for _, ev := range s.script[:4] {
		if _, err := s.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ApplyEvent(scenario.Event{Op: scenario.OpFailNode, Node: s.shards[0].dest + 1}); err != nil {
		t.Fatal(err)
	}
	check()
	t.Logf("chains with no hops %d; hops: origin %d, next omitted %d, held %d, journaled %d; %d bodies over %d B",
		empty, origin, noNext, held, journaled, long, unchunkedMax)
	if empty == 0 || origin == 0 || noNext <= origin || held == 0 || journaled == 0 || long == 0 {
		t.Fatalf("coverage: %d chains with no hops, %d origin hops, %d hops with next omitted, %d held, %d journaled, %d long bodies; want each > 0 and some routeless hops",
			empty, origin, noNext, held, journaled, long)
	}
}
