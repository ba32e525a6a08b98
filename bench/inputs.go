package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// -seed is the only source of randomness: every input is drawn from a
// stream derived from it, and the program under test only ever sees the
// generated inputs (a topology, a list of events, a seed of its own).
const (
	streamTopo int64 = iota + 1
	streamScript
	streamProgram // the seed handed to serve.New / atlas.Run / lab.Run
	streamReader
	streamProbe // subjects of verification reads and layer probes
)

func derive(seed int64, stream ...int64) int64 { return runner.DeriveSeed(seed, stream...) }

func rng(seed int64, stream ...int64) *rand.Rand {
	return rand.New(rand.NewSource(derive(seed, stream...)))
}

// workers is the pool size every untraced workload runs with; the traced
// run uses one so that per-shard costs add up to the call's wall time.
const workers = 2

// topo is a generated topology in both forms the program consumes.
type topo struct {
	g      *topology.Graph
	csr    *atlas.Graph
	genS   float64
	buildS float64
}

// buildTopo generates the n-AS topology of this seed and its CSR form,
// timing both.
func buildTopo(n int, seed int64) (*topo, error) {
	t0 := time.Now()
	g, err := topology.GenerateDefault(n, derive(seed, streamTopo))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	csr, err := atlas.FromTopology(g)
	if err != nil {
		return nil, err
	}
	return &topo{g: g, csr: csr, genS: t1.Sub(t0).Seconds(), buildS: time.Since(t1).Seconds()}, nil
}

// setupPlan says how often set-up is repeated: at least reps times and for
// at least window, which at full size is long enough for the host-speed
// sampler, and for a median over many repetitions where one takes
// milliseconds.
type setupPlan struct {
	reps   int
	window time.Duration
}

// fullSetup is the plan of a full-size run whose set-up takes seconds
// (reps 2) or less (more, to fill the window).
func fullSetup(reps int) setupPlan { return setupPlan{reps, 1200 * time.Millisecond} }

// setLayers records the two set-up layers every traced run prices.
func (tp *topo) setLayers(r *result) {
	r.set("topology.generate_s", tp.genS, 1)
	r.set("atlas.csr_build_s", tp.buildS, 1)
}

// planeBufs is one caller-owned copy of a state's routes: kind, distance
// and next hop of every AS on each of the three planes.
type planeBufs struct {
	kind [atlas.PlaneCount][]int8
	dist [atlas.PlaneCount][]int32
	next [atlas.PlaneCount][]int32
}

func newPlaneBufs(n int) *planeBufs {
	b := &planeBufs{}
	for p := range b.kind {
		b.kind[p], b.dist[p], b.next[p] = make([]int8, n), make([]int32, n), make([]int32, n)
	}
	return b
}

func (b *planeBufs) snapshot(st *atlas.State) {
	for p := range b.kind {
		st.SnapshotRoutes(p, b.kind[p], b.dist[p], b.next[p])
	}
}

// repeatSetup runs setup as often as plan says, sets setup_s to the median
// wall time at nominal host speed, and returns the last product. Products
// of earlier repetitions are dropped before the next one starts, so only
// one is ever live.
func repeatSetup[T any](r *result, plan setupPlan, setup func() (T, error)) (T, error) {
	var last T
	times := make([]float64, 0, plan.reps)
	sampler := startSampler()
	for start := time.Now(); len(times) < plan.reps || time.Since(start) < plan.window; {
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			sampler.finish("")
			return zero, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	speed, note := sampler.finish(r.workload + " set-up")
	r.set("setup_s", median(times)*speed, len(times))
	fmt.Printf("# %s; raw setup_s %.6g\n", note, median(times))
	return last, nil
}

// stormEvents draws the flap-storm script of this seed on g and returns
// its events in application order. The script is restore-balanced, so it
// can be cycled.
func stormEvents(g *atlas.Graph, seed int64) ([]scenario.Event, error) {
	script, err := scenario.PickScript(g, scenario.Multihomed(g), scenario.FlapStorm, rng(seed, streamScript))
	if err != nil {
		return nil, err
	}
	events := script.Sorted()
	if err := atlas.Repeatable(events); err != nil {
		return nil, err
	}
	return events, nil
}

// midStorm trims an event count so the stream does not end on a cycle
// boundary of a storm of cycle events: there every link is restored and
// the final state equals the initial one, which would make the final
// route check vacuous.
func midStorm(count, cycle int) int {
	half := cycle / 2 // one fail phase plus one restore phase
	if half > 1 && count%half == 0 && count > half/4 {
		count -= half / 4
	}
	return count
}

// netDamage folds an applied event stream into the link failures still in
// force at its end, in first-failure order.
func netDamage(applied []scenario.Event) []scenario.Event {
	down := map[[2]topology.ASN]int{}
	var order [][2]topology.ASN
	for _, ev := range applied {
		k := [2]topology.ASN{min(ev.A, ev.B), max(ev.A, ev.B)}
		switch ev.Op {
		case scenario.OpFailLink:
			if _, seen := down[k]; !seen {
				order = append(order, k)
			}
			down[k]++
		case scenario.OpRestoreLink:
			down[k]--
		}
	}
	var out []scenario.Event
	for _, k := range order {
		if down[k] > 0 {
			out = append(out, scenario.Event{Op: scenario.OpFailLink, A: k[0], B: k[1]})
		}
	}
	return out
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setPeakRSS records the layer table's memory row.
func setPeakRSS(r *result) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("runtime.peak_rss_mb", rss, 1)
	return nil
}

// liveHeapMB is the heap still in use after a collection: what the program
// keeps resident.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// phase brackets a timed phase: wall clock and CPU from start to stop, the
// live heap at stop, and the host-speed sampler in between.
type phase struct {
	t0      time.Time
	cpu0    float64
	sampler *speedSampler
	// scaled is false for a phase whose wall and CPU time are set by a
	// schedule rather than by how fast the host runs.
	scaled bool
}

func startPhase(scaled bool) phase {
	runtime.GC() // start every timed phase from a collected heap
	return phase{sampler: startSampler(), t0: time.Now(), cpu0: cpuSeconds(), scaled: scaled}
}

// stop records wall_s, cpu_s and live_heap_mb, fixes r.speed for the
// latency and rate metrics the caller sets next, and returns the raw wall
// time.
func (p phase) stop(r *result) time.Duration {
	wall := time.Since(p.t0)
	cpu := cpuSeconds() - p.cpu0
	var note string
	r.speed, note = p.sampler.finish(r.workload)
	heap := liveHeapMB()
	scale := r.speed
	if !p.scaled {
		scale = 1
	}
	r.set("wall_s", wall.Seconds()*scale, 1)
	r.set("cpu_s", cpu*scale, 1)
	r.set("live_heap_mb", heap, 1)
	fmt.Printf("# %s; raw wall_s %.6g cpu_s %.6g\n", note, wall.Seconds(), cpu)
	return wall
}
