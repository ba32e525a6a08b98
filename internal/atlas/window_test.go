package atlas

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"stamp/internal/prov"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// The window-lending tests. An Engine lends each call a window of
// convergence scratch and takes it back when the call returns, so States
// of one engine run in whatever window was idle, left there by another
// destination. These tests hold that to a twin per State on an engine of
// its own.

// lendTwin is a State on the shared engine and its twin on a private one.
type lendTwin struct {
	st, twin *State
	twinEng  *Engine
	j, twinJ *prov.Journal
}

func newLendTwins(shared *Engine, dests []topology.ASN, c int) []lendTwin {
	ts := make([]lendTwin, len(dests))
	for i := range ts {
		priv := NewEngine(shared.Graph(), DefaultParams())
		ts[i] = lendTwin{st: withCap(shared, c), twin: withCap(priv, c), twinEng: priv,
			j: prov.NewJournal(1 << 18), twinJ: prov.NewJournal(1 << 18)}
		ts[i].st.SetJournal(ts[i].j)
		ts[i].twin.SetJournal(ts[i].twinJ)
	}
	return ts
}

// mustMatchTwin compares everything a consumer reads from a State after
// an event: routes, the latest window's touched sets, and the canonical
// journal.
func (tw *lendTwin) mustMatchTwin(t *testing.T, label string) {
	t.Helper()
	mustNoDiff(t, label, tw.st, tw.twin)
	if tw.st.Windows() != tw.twin.Windows() {
		t.Fatalf("%s: window %d, twin %d", label, tw.st.Windows(), tw.twin.Windows())
	}
	for p := 0; p < planeCount; p++ {
		got, ok := tw.st.Touched(tw.st.Windows(), p)
		want, wantOK := tw.twin.Touched(tw.twin.Windows(), p)
		if ok != wantOK || !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
			t.Fatalf("%s: plane %s touched %v (ok %v), twin %v (ok %v)", label, PlaneName(p), got, ok, want, wantOK)
		}
	}
	if tw.j.Evicted() != 0 || tw.twinJ.Evicted() != 0 {
		t.Fatalf("%s: journal evicted entries; enlarge it", label)
	}
	if !reflect.DeepEqual(canonicalJournal(tw.j), canonicalJournal(tw.twinJ)) {
		t.Fatalf("%s: canonical journal differs from the twin's", label)
	}
}

// TestLentWindowsMatchPrivateEngines interleaves event streams at three
// destinations on one engine, which then holds a single window every
// State takes turns in, and after every event holds each State to its
// twin on a private engine. Mid-stream it re-fails a link that is
// already down, which must leave every pair equal too, and converges one
// State from scratch.
func TestLentWindowsMatchPrivateEngines(t *testing.T) {
	tg, g := testGraph(t, 1500, 23)
	multihomed := scenario.Multihomed(g)
	dests, err := Destinations(g, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []scenario.Kind{scenario.FlapStorm, scenario.LinkFlap} {
		script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		events := script.Sorted()
		refail := slices.IndexFunc(events, func(ev scenario.Event) bool { return ev.Op == scenario.OpFailLink })
		if refail < 0 {
			t.Fatalf("%v: script fails no link", kind)
		}
		for _, c := range []int{-1, 0} {
			shared := NewEngine(g, DefaultParams())
			ts := newLendTwins(shared, dests, c)
			for i := range ts {
				if err := shared.InitDest(ts[i].st, dests[i]); err != nil {
					t.Fatal(err)
				}
				if err := ts[i].twinEng.InitDest(ts[i].twin, dests[i]); err != nil {
					t.Fatal(err)
				}
				ts[i].mustMatchTwin(t, kind.String()+" "+capName(c)+" init")
			}
			for k, ev := range events {
				for i := range ts {
					cost, err := shared.ApplyEvent(ts[i].st, ev)
					want, wantErr := ts[i].twinEng.ApplyEvent(ts[i].twin, ev)
					if err != nil || wantErr != nil {
						t.Fatalf("%v %s event %d dest %d: %v / twin %v", kind, capName(c), k, dests[i], err, wantErr)
					}
					if cost != want {
						t.Fatalf("%v %s event %d dest %d: EventCost %+v, twin %+v", kind, capName(c), k, dests[i], cost, want)
					}
					ts[i].mustMatchTwin(t, kind.String()+" "+capName(c))
				}
				lastEpoch := shared.free[0].epoch
				if k != refail {
					continue
				}
				for i := range ts {
					_, err := shared.ApplyEvent(ts[i].st, ev)
					_, wantErr := ts[i].twinEng.ApplyEvent(ts[i].twin, ev)
					if err == nil || wantErr == nil {
						t.Fatalf("%v: re-failing %v was accepted (%v / twin %v)", kind, ev, err, wantErr)
					}
					ts[i].mustMatchTwin(t, kind.String()+" "+capName(c)+" refused")
				}
				// A from-scratch re-convergence mid-stream: it starts its
				// windows on the epoch the others left.
				if err := shared.ConvergeScratch(ts[0].st, dests[0], events[:k+1]); err != nil {
					t.Fatal(err)
				}
				if err := ts[0].twinEng.ConvergeScratch(ts[0].twin, dests[0], events[:k+1]); err != nil {
					t.Fatal(err)
				}
				ts[0].mustMatchTwin(t, kind.String()+" "+capName(c)+" rescratched")
				// The stamps every State left are older than the epoch the
				// next window takes, so the one window's epoch never falls.
				if e := shared.free[0].epoch; e < lastEpoch {
					t.Fatalf("%v %s: the from-scratch convergence moved the window's epoch back from %d to %d", kind, capName(c), lastEpoch, e)
				}
			}
			if n := shared.idleWindows(); n != 1 {
				t.Fatalf("%v %s: sequential calls left %d windows, want 1", kind, capName(c), n)
			}
		}
	}
}

// TestLentWindowsConcurrent drives 8 States of one engine from
// `workers` goroutines at once, then holds every final fixpoint to a
// from-scratch convergence on a private engine, and the engine to at
// most one window per goroutine. Run it under -race.
func TestLentWindowsConcurrent(t *testing.T) {
	tg, g := testGraph(t, 600, 19)
	script, err := scenario.PickScript(tg, scenario.Multihomed(g), scenario.FlapStorm, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	events := script.Sorted()
	dests, err := Destinations(g, 8, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 2} {
		eng := NewEngine(g, DefaultParams())
		sts := make([]*State, len(dests))
		for i := range sts {
			sts[i] = eng.NewState()
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(sts); i += workers {
					if errs[w] = eng.InitDest(sts[i], dests[i]); errs[w] != nil {
						return
					}
				}
				for _, ev := range events {
					for i := w; i < len(sts); i += workers {
						if _, errs[w] = eng.ApplyEvent(sts[i], ev); errs[w] != nil {
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		ref := NewEngine(g, DefaultParams())
		scratch := ref.NewState()
		for i, st := range sts {
			if err := ref.ConvergeScratch(scratch, dests[i], events); err != nil {
				t.Fatal(err)
			}
			mustNoDiff(t, "concurrent vs scratch", st, scratch)
		}
		if n := eng.idleWindows(); n > workers {
			t.Fatalf("%d goroutines left the engine %d windows, want at most %d", workers, n, workers)
		}
	}
}

// TestEpochRewind starts a window's epoch just below the int32 limit,
// with the stamps and accounting a window wrote one counter cycle ago
// (the values a wrapped epoch takes next, over accounting that reads as
// lost routes), and streams events across the limit at every offset
// from a group boundary. EventCosts and routes must equal a fresh engine's: the epoch
// restarts, clearing its stamps, before it can meet an old one.
func TestEpochRewind(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	dests, err := Destinations(g, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	dest := dests[0]
	events := randomStream(rand.New(rand.NewSource(1001)), g, dest, graphEdges(g), 30)
	fresh := NewEngine(g, DefaultParams())
	want := fresh.NewState()
	if err := fresh.InitDest(want, dest); err != nil {
		t.Fatal(err)
	}
	wantCosts := make([]EventCost, len(events))
	for i, ev := range events {
		if wantCosts[i], err = fresh.ApplyEvent(want, ev); err != nil {
			t.Fatal(err)
		}
	}
	for left := 0; left <= 3*planeCount+1; left++ {
		eng := NewEngine(g, DefaultParams())
		st := eng.NewState()
		w := eng.free[0]
		// Once before InitDest, whose reset must restart the epoch, and
		// again before the stream: InitDest's dense windows restamp
		// nearly every AS.
		for _, init := range []bool{true, false} {
			w.epoch = math.MaxInt32 - int32(left)
			for p := 0; p < planeCount; p++ {
				for a := range w.changedStamp[p] {
					w.changedStamp[p][a] = math.MinInt32 + int32(a%(4*planeCount))
					w.lostAcc[p][a] = 1 << 20
					w.hadStart[p][a] = true
					w.permMark[p][a] = a%3 == 0
				}
			}
			if !init {
				break
			}
			if err := eng.InitDest(st, dest); err != nil {
				t.Fatal(err)
			}
			if w.epoch <= 0 {
				t.Fatalf("epoch %d below the limit: InitDest left it at %d", left, w.epoch)
			}
		}
		for i, ev := range events {
			cost, err := eng.ApplyEvent(st, ev)
			if err != nil {
				t.Fatal(err)
			}
			if cost != wantCosts[i] {
				t.Fatalf("epoch %d below the limit, event %d: EventCost %+v, fresh %+v", left, i, cost, wantCosts[i])
			}
		}
		mustNoDiff(t, "rewound vs fresh", st, want)
		if out, wantOut := eng.FinishDest(st), fresh.FinishDest(want); !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("epoch %d below the limit: DestOutcome %+v, fresh %+v", left, out, wantOut)
		}
		if w.epoch < 0 || w.epoch > int32(planeCount*(len(events)+1)) {
			t.Fatalf("epoch %d below the limit ended at %d; it did not restart", left, w.epoch)
		}
	}
}

// TestStateFootprint: at N=50k a State holds what its destination owns
// (1.91 MB: a route word and an advertised preference per AS and plane,
// and bits for link, node and chain state) and no convergence scratch.
// NewState stocks a window (2.97 MB) only when the engine has none idle.
func TestStateFootprint(t *testing.T) {
	_, g := testGraph(t, 50_000, 1)
	eng := NewEngine(g, DefaultParams())
	eng.NewState() // stocks the engine's first window
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	st := eng.NewState()
	runtime.ReadMemStats(&b)
	if got := b.TotalAlloc - a.TotalAlloc; got > 2_000_000 {
		t.Fatalf("NewState beside an idle window allocated %.2f MB at N=%d, want at most 2.0 MB", float64(got)/1e6, g.Len())
	}
	if st.window != nil || eng.idleWindows() != 1 {
		t.Fatalf("NewState beside an idle window left %d windows (state holds one: %v)", eng.idleWindows(), st.window != nil)
	}
}

// idleWindows reports how many windows the engine holds. Between calls
// every window it ever lent is idle.
func (e *Engine) idleWindows() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.free)
}

// TestRoundGuardDropsWindow: a converge that trips its round guard
// leaves its window mid-flight (queued ASes, closed gates), so takeBack
// must drop it rather than lend it to the next call. An AS queued
// behind a gate that never opens keeps the loop running to the guard.
func TestRoundGuardDropsWindow(t *testing.T) {
	g := leafGraph(t)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	eng.lend(st)
	st.ready[leafP1] = math.MaxInt32
	st.pendAdd(leafP1)
	if _, err := st.converge(planeBGP, 2, &PlaneOutcome{}); err == nil {
		t.Fatal("a publication whose gate never opens converged")
	}
	eng.takeBack(st)
	if n := eng.idleWindows(); n != 0 {
		t.Fatalf("the engine kept %d idle windows after the round guard fired, want 0", n)
	}
	if err := eng.InitDest(st, leafD); err != nil {
		t.Fatal(err)
	}
	if n := eng.idleWindows(); n != 1 {
		t.Fatalf("InitDest left %d idle windows, want 1", n)
	}
}

// Graph returns the engine's topology.
func (e *Engine) Graph() *Graph { return e.g }
