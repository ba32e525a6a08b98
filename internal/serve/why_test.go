package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"stamp/internal/atlas"
	"stamp/internal/prov"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// TestWhyEndpoint: GET /state/{dest}/{as}/why returns the three-plane
// provenance chains, the chains terminate at the origin, and the
// journal keeps absorbing route changes as events apply.
func TestWhyEndpoint(t *testing.T) {
	s := testServer(t, 300, 2)
	base := startServer(t, s)

	var idx StateIndex
	mustGetJSON(t, base+"/state", &idx)
	dest := idx.Dests[0]

	// Boot converges with no journal attached, so right after it the
	// journal is empty and the destination's own chain is one held origin
	// hop per plane.
	var own WhyResponse
	mustGetJSON(t, fmt.Sprintf("%s/state/%d/%d/why", base, dest, dest), &own)
	if own.Dest != dest || own.AS != dest || len(own.Chains) != atlas.PlaneCount {
		t.Fatalf("own = %+v, want three-plane chains for dest %d", own, dest)
	}
	if own.Appends != 0 {
		t.Errorf("journal holds %d appends right after boot, want 0", own.Appends)
	}
	for _, c := range own.Chains {
		if len(c.Hops) != 1 {
			t.Errorf("plane %s: %d hops, want the origin alone", c.Plane, len(c.Hops))
			continue
		}
		if h := c.Hops[0]; !h.Origin || h.AS != dest || h.Dist != 0 || h.Cause != atlas.CauseHeld {
			t.Errorf("plane %s hop = %+v, want the held origin at dist 0", c.Plane, h)
		}
	}

	// A neighbor's chain walks hop by hop to the origin: each hop's
	// next is the following hop's AS.
	dense, ok := s.g.DenseASN(dest)
	if !ok {
		t.Fatal("dest not in the graph")
	}
	nbrs := s.g.Neighbors(nil, dense)
	if len(nbrs) == 0 {
		t.Fatal("destination has no neighbors")
	}
	nbr := s.g.OriginalASN(nbrs[0])
	var why WhyResponse
	mustGetJSON(t, fmt.Sprintf("%s/state/%d/%d/why", base, dest, nbr), &why)
	for _, c := range why.Chains {
		for i := 0; i+1 < len(c.Hops); i++ {
			if c.Hops[i].Next != c.Hops[i+1].AS {
				t.Errorf("plane %s hop %d: next %d != following AS %d",
					c.Plane, i, c.Hops[i].Next, c.Hops[i+1].AS)
			}
		}
		if n := len(c.Hops); n > 0 {
			if h := c.Hops[n-1]; c.Truncated || !h.Origin {
				t.Errorf("plane %s chain does not end at the origin (truncated %v): %+v", c.Plane, c.Truncated, h)
			}
		}
	}

	// The first applied event that moves a route at this shard journals
	// it; the rest of the script appends more, and the epoch in the
	// response tracks the published epoch.
	applied := 0
	for ; applied < len(s.script) && s.shards[0].j.Appends() == 0; applied++ {
		if _, err := s.ApplyEvent(s.script[applied]); err != nil {
			t.Fatal(err)
		}
	}
	if s.shards[0].j.Appends() == 0 {
		t.Fatal("journal recorded nothing over the whole script")
	}
	for _, ev := range s.script[applied:] {
		if _, err := s.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	var after WhyResponse
	mustGetJSON(t, fmt.Sprintf("%s/state/%d/%d/why", base, dest, nbr), &after)
	if after.Epoch != uint64(len(s.script)) {
		t.Errorf("epoch = %d, want %d", after.Epoch, len(s.script))
	}
	if after.Appends <= why.Appends {
		t.Errorf("appends %d -> %d, want growth after %d events",
			why.Appends, after.Appends, len(s.script))
	}
	if got := s.metrics.whyTotal.Value(); got != 3 {
		t.Errorf("why queries counted = %d, want 3", got)
	}

	// Errors: unknown destination and unknown AS 404, junk 400s.
	for _, path := range []string{
		"/state/999999999/1/why",
		fmt.Sprintf("/state/%d/999999999/why", dest),
		"/state/xyz/1/why",
		fmt.Sprintf("/state/%d/xyz/why", dest),
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 4xx", path, resp.StatusCode)
		}
	}
}

// TestHealthzProvenance: /healthz reports the journal totals and
// uptime alongside the existing fields, and the provenance metric
// families are exported.
func TestHealthzProvenance(t *testing.T) {
	s := testServer(t, 300, 2)
	base := startServer(t, s)

	var health struct {
		Status            string  `json:"status"`
		ProvenanceEntries int64   `json:"provenance_entries"`
		ProvenanceEvicted uint64  `json:"provenance_evictions"`
		UptimeSeconds     float64 `json:"uptime_seconds"`
		EventsApplied     uint64  `json:"events_applied"`
	}
	mustGetJSON(t, base+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("health = %+v", health)
	}
	if health.ProvenanceEntries != 0 {
		t.Errorf("provenance_entries = %d right after boot, want 0: boot journals nothing", health.ProvenanceEntries)
	}
	// Applied events journal their route changes.
	for _, ev := range s.script {
		if _, err := s.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
		if s.provEntries.Load() > 0 {
			break
		}
	}
	mustGetJSON(t, base+"/healthz", &health)
	if health.ProvenanceEntries == 0 {
		t.Errorf("provenance_entries = 0 after %d events, want their route changes", health.EventsApplied)
	}
	if health.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", health.UptimeSeconds)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, family := range []string{
		"stamp_serve_why_total",
		"stamp_serve_why_truncated_total",
		"stamp_prov_entries",
		"stamp_prov_appends_total",
		"stamp_prov_evictions_total",
		"stamp_serve_event_log_evictions",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("metrics output missing %s", family)
		}
	}
	if s.metrics.provEntries.Value() != health.ProvenanceEntries {
		t.Errorf("gauge %d != healthz %d", s.metrics.provEntries.Value(), health.ProvenanceEntries)
	}
}

// TestBootJournalsNothing: serve.New converges every shard with no
// journal attached, so each journal holds nothing after boot, yet each
// shard's routes equal a journaled InitDest's; after the flap storm,
// each journal holds exactly what a journal attached before boot holds
// for the events (Event >= 1), in canonical form.
func TestBootJournalsNothing(t *testing.T) {
	const provCap = 1 << 16 // no eviction: the journals are compared whole
	g := testGraph(t, 600)
	s, err := New(Config{Graph: g, Scenario: scenario.FlapStorm, Dests: 4, Seed: 7, Workers: 2, ProvCap: provCap})
	if err != nil {
		t.Fatal(err)
	}
	eng := atlas.NewEngine(g, atlas.DefaultParams())
	refs := make([]*atlas.State, len(s.shards))
	refJ := make([]*prov.Journal, len(s.shards))
	for i, sh := range s.shards {
		if n := sh.j.Appends(); n != 0 {
			t.Errorf("shard %d: journal holds %d appends after boot, want 0", i, n)
		}
		refs[i], refJ[i] = eng.NewState(), prov.NewJournal(provCap)
		refs[i].SetJournal(refJ[i])
		if err := eng.InitDest(refs[i], sh.dest); err != nil {
			t.Fatal(err)
		}
		if d := atlas.DiffStates(refs[i], sh.st); d != nil {
			t.Fatalf("shard %d: boot routes differ from a journaled InitDest's: %v", i, d[0])
		}
	}
	for _, ev := range s.script {
		if _, err := s.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			if _, err := eng.ApplyEvent(ref, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, sh := range s.shards {
		if sh.j.Evicted() != 0 || refJ[i].Evicted() != 0 {
			t.Fatalf("shard %d: a journal evicted; raise provCap", i)
		}
		var want []prov.Entry
		for _, e := range canonicalEntries(refJ[i]) {
			if e.Event >= 1 {
				want = append(want, e)
			}
		}
		got := canonicalEntries(sh.j)
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Fatalf("shard %d: %d journal entries after the storm, want the boot-journaled state's %d for events >= 1",
				i, len(got), len(want))
		}
	}
}

// canonicalEntries is a journal's entries with Seq dropped, sorted by
// (Event, Plane, Round, AS): the engine's append order within one
// (event, plane, round) is unspecified, and an AS has at most one entry
// there.
func canonicalEntries(j *prov.Journal) []prov.Entry {
	es := j.Tail(j.Len())
	for i := range es {
		es[i].Seq = 0
	}
	slices.SortStableFunc(es, func(a, b prov.Entry) int {
		return cmp.Or(cmp.Compare(a.Event, b.Event), cmp.Compare(a.Plane, b.Plane),
			cmp.Compare(a.Round, b.Round), cmp.Compare(a.AS, b.AS))
	})
	return es
}

// TestWhyChainsMatchPointReads: for every shard, AS and plane, a routed
// AS's /why chain reaches the origin untruncated, each hop's next is the
// following hop's AS, and each hop's kind, dist and next equal the point
// read of its AS at the same epoch; a routeless AS's chain is empty or
// its one routeless entry. Checked right after boot, halfway through
// the storm (some links down), after it, and halfway through with an
// 8-entry journal that has evicted.
func TestWhyChainsMatchPointReads(t *testing.T) {
	g := testGraph(t, 300)
	for _, tc := range []struct {
		name    string
		provCap int
		events  int
	}{{"boot", 0, 0}, {"mid-storm", 0, 7}, {"storm", 0, -1}, {"evicting", 8, 7}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Graph: g, Scenario: scenario.FlapStorm, Dests: 4, Seed: 7, ProvCap: tc.provCap})
			if err != nil {
				t.Fatal(err)
			}
			script := s.script
			if tc.events >= 0 {
				script = script[:tc.events]
			}
			for _, ev := range script {
				if _, err := s.ApplyEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			if tc.provCap == 8 && s.shards[0].j.Evicted() == 0 {
				t.Fatal("the 8-entry journal evicted nothing")
			}
			var held, journaled int
			h := s.Handler()
			for _, sh := range s.shards {
				dest := g.OriginalASN(sh.dest)
				points := make(map[int64]StateRead, g.Len())
				for a := 0; a < g.Len(); a++ {
					asn := g.OriginalASN(topology.ASN(a))
					var pr StateRead
					path := fmt.Sprintf("/state/%d?as=%d", dest, asn)
					if err := json.Unmarshal(wireGet(t, h, path).Body.Bytes(), &pr); err != nil {
						t.Fatalf("GET %s: %v", path, err)
					}
					points[asn] = pr
				}
				for asn, pr := range points {
					path := fmt.Sprintf("/state/%d/%d/why", dest, asn)
					var why WhyResponse
					if err := json.Unmarshal(wireGet(t, h, path).Body.Bytes(), &why); err != nil {
						t.Fatalf("GET %s: %v", path, err)
					}
					if why.Epoch != pr.Epoch || why.Epoch != uint64(len(script)) {
						t.Fatalf("%s: epoch %d, point read %d, want %d", path, why.Epoch, pr.Epoch, len(script))
					}
					for p, c := range why.Chains {
						if err := checkChain(c, p, asn, dest, points); err != nil {
							t.Fatalf("%s plane %s: %v\nchain %+v", path, c.Plane, err, c.Hops)
						}
						for _, hop := range c.Hops {
							if hop.Cause == atlas.CauseHeld {
								held++
							} else {
								journaled++
							}
						}
					}
				}
			}
			t.Logf("%d held hops, %d journaled", held, journaled)
			if held == 0 || (len(script) > 0) != (journaled > 0) {
				t.Fatalf("%d held hops, %d journaled after %d events", held, journaled, len(script))
			}
		})
	}
}

// checkChain checks one plane's why chain for asn against the point
// reads of one shard at the same epoch.
func checkChain(c atlas.WhyChain, p int, asn, dest int64, points map[int64]StateRead) error {
	if c.Truncated {
		return fmt.Errorf("truncated")
	}
	if pr := points[asn].Planes[p]; pr.Kind == "none" {
		if len(c.Hops) > 1 || len(c.Hops) == 1 && c.Hops[0].Kind != "none" {
			return fmt.Errorf("routeless AS has %d hops", len(c.Hops))
		}
		return nil
	}
	if len(c.Hops) == 0 || c.Hops[0].AS != asn {
		return fmt.Errorf("routed AS's chain does not start at it")
	}
	for i, hop := range c.Hops {
		pr := points[hop.AS].Planes[p]
		if hop.Kind != pr.Kind || hop.Dist != pr.Dist || hop.Next != pr.Next {
			return fmt.Errorf("hop %d (AS %d) = %s/%d via %d, point read %s/%d via %d",
				i, hop.AS, hop.Kind, hop.Dist, hop.Next, pr.Kind, pr.Dist, pr.Next)
		}
		if i+1 < len(c.Hops) && hop.Next != c.Hops[i+1].AS {
			return fmt.Errorf("hop %d: next %d != following AS %d", i, hop.Next, c.Hops[i+1].AS)
		}
	}
	if last := c.Hops[len(c.Hops)-1]; !last.Origin || last.AS != dest || last.Dist != 0 {
		return fmt.Errorf("chain ends at %+v, not the origin %d", last, dest)
	}
	return nil
}

// TestWhyReadersBesideWriter runs /why readers while the writer applies
// the storm, so `go test -race` covers the walk's reads of the shard
// state against ApplyEvent's writes. Every chain a reader gets is whole:
// linked hop to hop and, when routed, ending at the origin.
func TestWhyReadersBesideWriter(t *testing.T) {
	s := testServer(t, 300, 2)
	h := s.Handler()
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := r; ; k += 4 {
				select {
				case <-done:
					return
				default:
				}
				sh := s.shards[k%len(s.shards)]
				path := fmt.Sprintf("/state/%d/%d/why", s.g.OriginalASN(sh.dest), s.g.OriginalASN(topology.ASN(k%s.g.Len())))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				var why WhyResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &why); err != nil || rec.Code != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d, %v", path, rec.Code, err)
					return
				}
				for _, c := range why.Chains {
					for i, hop := range c.Hops {
						last := i+1 == len(c.Hops)
						if !last && hop.Next != c.Hops[i+1].AS || last && hop.Kind != "none" && !hop.Origin || c.Truncated {
							errs <- fmt.Errorf("GET %s plane %s: broken chain %+v", path, c.Plane, c.Hops)
							return
						}
					}
				}
			}
		}()
	}
	var applyErr error
	for k := 0; k < 10*len(s.script) && applyErr == nil; k++ {
		_, applyErr = s.ApplyEvent(s.script[k%len(s.script)])
	}
	close(done)
	wg.Wait()
	close(errs)
	if applyErr != nil {
		t.Error(applyErr)
	}
	for err := range errs {
		t.Error(err)
	}
}

// WhyResponse is the GET /state/{dest}/{as}/why payload: the causal
// provenance chains for one (destination, AS) pair at the current
// epoch — every hop on the path from the asking AS to the origin, per
// plane, rendered from its latest journal entry or, when the journal
// retains none, as a held hop (atlas.State.Why).
type WhyResponse struct {
	Epoch uint64 `json:"epoch"`
	*atlas.WhyReport
}
