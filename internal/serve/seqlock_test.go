package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// TestPublishAllocs: once warm, a steady-state publish — every shard
// patching its buffer from one window's touched sets — allocates
// nothing, and neither does a point or summary read of the buffer.
func TestPublishAllocs(t *testing.T) {
	s := publishServer(t, scenario.FlapStorm, 1500, 4)
	for i := 0; i < 4; i++ {
		if _, err := s.ApplyEvent(s.script[i]); err != nil {
			t.Fatal(err)
		}
	}
	epoch := s.Epoch()
	patched := s.metrics.publishPatched.Value()
	const runs = 50
	// Rewinding a buffer's window by one makes publish patch the last
	// window again: the same stores, and idempotent.
	allocs := testing.AllocsPerRun(runs, func() {
		for _, sh := range s.shards {
			sh.snap.window--
			s.publish(sh, epoch)
		}
	})
	if allocs != 0 {
		t.Errorf("a patched publish of %d shards allocates %v times, want 0", len(s.shards), allocs)
	}
	// AllocsPerRun adds one warm-up call.
	if got, want := s.metrics.publishPatched.Value()-patched, int64((runs+1)*len(s.shards)); got != want {
		t.Errorf("%d of %d publishes were patched; the measured publish must be the patched one", got, want)
	}
	checkPublished(t, s, "re-patched")

	sh := s.shards[0]
	if allocs := testing.AllocsPerRun(runs, func() {
		sh.snap.read(int32(sh.dest))
		sh.snap.summary()
	}); allocs != 0 {
		t.Errorf("a point and a summary read allocate %v times, want 0", allocs)
	}
}

// viewKey names what one read observed: a shard at an epoch, and the AS
// of a point read (-1 for the summary).
type viewKey struct {
	shard int
	epoch uint64
	as    int32
}

type pointView [atlas.PlaneCount]PlaneRoute

type summaryView struct {
	reachable [atlas.PlaneCount]int32
	dark      int32
}

// pointOf renders one AS's plane routes, in State.SnapshotRoute form,
// the way a point read reports them.
func (s *Server) pointOf(route func(p int) (int8, int32, int32)) pointView {
	var v pointView
	for p := range v {
		kind, dist, next := route(p)
		v[p] = PlaneRoute{Plane: planeNames[p], Kind: atlas.KindName(kind), Dist: dist}
		if next >= 0 {
			v[p].Next = s.g.OriginalASN(topology.ASN(next))
		}
	}
	return v
}

// readLog is one reader's observations, one per key: two reads of the
// same shard, epoch and AS must agree, so a conflict fails at once.
type readLog struct {
	points    map[viewKey]pointView
	summaries map[viewKey]summaryView
	err       error
}

func (l *readLog) point(k viewKey, v pointView) {
	if old, ok := l.points[k]; ok && old != v && l.err == nil {
		l.err = fmt.Errorf("two point reads of %+v disagree: %v and %v", k, old, v)
	}
	l.points[k] = v
}

func (l *readLog) summary(k viewKey, v summaryView) {
	if old, ok := l.summaries[k]; ok && old != v && l.err == nil {
		l.err = fmt.Errorf("two summary reads of %+v disagree: %v and %v", k, old, v)
	}
	l.summaries[k] = v
}

// TestReadsMatchTheirEpoch is the epoch-consistency stress test: a
// writer applies the storm script flat out and, after every event,
// records what each shard's routes at a set of probe ASes and its
// reachability counters are at that epoch. Readers run beside it just
// as fast, through the HTTP handler and through the snapshot directly,
// and log the epoch and routes of every read. Afterwards every logged
// read must equal the writer's record for its epoch: a read never
// mixes one publish's epoch with another's routes. Run with -race.
func TestReadsMatchTheirEpoch(t *testing.T) {
	s := testServer(t, 1000, 3)
	h := s.Handler()

	// The writer cycles the storm script, then fails and restores each
	// destination's locked provider link, which re-roots that shard: its
	// publish is a full copy, the longest a reader can meet. The probes
	// are the ASes these events move most, the ones a torn read would
	// show. One cycle is restore-balanced, so the warm-up that finds them
	// leaves the routes where boot put them.
	events := append([]scenario.Event(nil), s.script...)
	for _, sh := range s.shards {
		ev := scenario.Event{Op: scenario.OpFailLink, A: sh.dest, B: s.g.Providers(sh.dest)[0]}
		events = append(events, ev)
		ev.Op = scenario.OpRestoreLink
		events = append(events, ev)
	}
	moves := make([]int, s.g.Len())
	kinds := func(sh *shard) [][atlas.PlaneCount]int8 {
		k := make([][atlas.PlaneCount]int8, s.g.Len())
		for a := range k {
			for p := range k[a] {
				k[a][p], _, _ = sh.st.SnapshotRoute(p, int32(a))
			}
		}
		return k
	}
	reroots := 0
	for _, ev := range events {
		before := make([][][atlas.PlaneCount]int8, len(s.shards))
		for i, sh := range s.shards {
			before[i] = kinds(sh)
		}
		rec, err := s.ApplyEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		reroots += rec.Reroots
		for i, sh := range s.shards {
			for a, k := range kinds(sh) {
				if k != before[i][a] {
					moves[a]++
				}
			}
		}
	}
	if reroots < len(s.shards) {
		t.Fatalf("%d re-roots in one cycle, want one per shard at least", reroots)
	}
	probes := make([]int32, s.g.Len())
	for a := range probes {
		probes[a] = int32(a)
	}
	sort.SliceStable(probes, func(i, j int) bool { return moves[probes[i]] > moves[probes[j]] })
	probes = probes[:16]
	if moves[probes[len(probes)-1]] == 0 {
		t.Fatalf("the events move fewer than %d ASes", len(probes))
	}

	points := map[viewKey]pointView{}
	summaries := map[viewKey]summaryView{}
	record := func(epoch uint64) {
		for i, sh := range s.shards {
			var sum summaryView
			for a := int32(0); a < int32(s.g.Len()); a++ {
				lit := false
				for p := 0; p < atlas.PlaneCount; p++ {
					if kind, _, _ := sh.st.SnapshotRoute(p, a); kind != 0 {
						sum.reachable[p]++
						lit = lit || p != atlas.PlaneBGP
					}
				}
				if !lit {
					sum.dark++
				}
			}
			summaries[viewKey{i, epoch, -1}] = sum
			for _, a := range probes {
				points[viewKey{i, epoch, a}] = s.pointOf(func(p int) (int8, int32, int32) { return sh.st.SnapshotRoute(p, a) })
			}
		}
	}
	record(s.Epoch())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	direct := func(l *readLog, i int) {
		shard := i % len(s.shards)
		snap := &s.shards[shard].snap
		if i%5 == 0 {
			epoch, reach, dark := snap.summary()
			l.summary(viewKey{shard, epoch, -1}, summaryView{reach, dark})
			return
		}
		a := probes[i%len(probes)]
		epoch, routes := snap.read(a)
		l.point(viewKey{shard, epoch, a}, s.pointOf(func(p int) (int8, int32, int32) { return unpackRoute(routes[p]) }))
	}
	viaHTTP := func(l *readLog, i int) {
		shard := i % len(s.shards)
		dest := s.g.OriginalASN(s.shards[shard].dest)
		get := func(path string, v any) bool {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if err := json.Unmarshal(rec.Body.Bytes(), v); rec.Code != http.StatusOK || err != nil {
				l.err = fmt.Errorf("GET %s: status %d, %v", path, rec.Code, err)
				return false
			}
			return true
		}
		if i%5 == 0 {
			var sum StateSummary
			if get(fmt.Sprintf("/state/%d", dest), &sum) {
				l.summary(viewKey{shard, sum.Epoch, -1}, summaryView{
					[atlas.PlaneCount]int32{sum.Reachable["bgp"], sum.Reachable["red"], sum.Reachable["blue"]},
					sum.StampUnreachable})
			}
			return
		}
		a := probes[i%len(probes)]
		var read StateRead
		if get(fmt.Sprintf("/state/%d?as=%d", dest, s.g.OriginalASN(topology.ASN(a))), &read) {
			var v pointView
			copy(v[:], read.Planes)
			l.point(viewKey{shard, read.Epoch, a}, v)
		}
	}
	readers := []func(*readLog, int){direct, direct, viaHTTP, viaHTTP}
	logs := make([]*readLog, len(readers))
	var wg sync.WaitGroup
	for r, readOnce := range readers {
		l := &readLog{points: map[viewKey]pointView{}, summaries: map[viewKey]summaryView{}}
		logs[r] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ctx.Err() == nil && l.err == nil; i++ {
				readOnce(l, i)
			}
		}()
	}

	deadline := time.Now().Add(600 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		rec, err := s.ApplyEvent(events[i%len(events)])
		if err != nil {
			cancel()
			wg.Wait()
			t.Fatal(err)
		}
		record(rec.Epoch)
	}
	cancel()
	wg.Wait()

	for r, l := range logs {
		if l.err != nil {
			t.Fatalf("reader %d: %v", r, l.err)
		}
		epochs := map[uint64]bool{}
		for k, got := range l.points {
			epochs[k.epoch] = true
			if want, ok := points[k]; !ok {
				t.Fatalf("reader %d read epoch %d, which the writer never published", r, k.epoch)
			} else if got != want {
				t.Fatalf("reader %d: shard %d AS %d at epoch %d read %v, published %v", r, k.shard, k.as, k.epoch, got, want)
			}
		}
		for k, got := range l.summaries {
			epochs[k.epoch] = true
			if want, ok := summaries[k]; !ok {
				t.Fatalf("reader %d read epoch %d, which the writer never published", r, k.epoch)
			} else if got != want {
				t.Fatalf("reader %d: shard %d summary at epoch %d read %+v, published %+v", r, k.shard, k.epoch, got, want)
			}
		}
		if len(epochs) < 2 {
			t.Errorf("reader %d saw %d epochs; the writer must move under it", r, len(epochs))
		}
	}
	t.Logf("%d epochs published, %d reads retried mid-publish", len(summaries)/len(s.shards), s.metrics.readRetries.Value())
}
