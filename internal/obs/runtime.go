package obs

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
)

// runtimeCollector refreshes process-health gauges from the Go runtime
// on every scrape. Nothing it reads stops the world: heap bytes come
// from runtime/metrics and the GC count and pause ring from
// debug.ReadGCStats, which takes the heap lock, both into buffers kept
// across scrapes. It still runs only when someone actually scrapes,
// never on a timer.
type runtimeCollector struct {
	goroutines *Gauge
	heapBytes  *Gauge
	numGC      *Counter
	gcPause    *Histogram

	mu        sync.Mutex
	lastNumGC int64
	heap      [1]metrics.Sample
	gc        debug.GCStats
}

// RegisterRuntime adds process runtime metrics to the registry —
// stamp_runtime_goroutines, stamp_runtime_heap_bytes,
// stamp_runtime_num_gc_total, and a stamp_runtime_gc_pause_seconds
// histogram fed from the runtime's recent-pause ring — refreshed by an
// OnScrape hook so every /metrics surface that shares the registry gets
// them for free. Call once per registry (a second call panics on the
// duplicate names, like any double registration).
func RegisterRuntime(r *Registry) {
	c := &runtimeCollector{
		goroutines: r.Gauge("stamp_runtime_goroutines", "Live goroutines."),
		heapBytes:  r.Gauge("stamp_runtime_heap_bytes", "Bytes of allocated heap objects (MemStats.HeapAlloc)."),
		numGC:      r.Counter("stamp_runtime_num_gc_total", "Completed GC cycles."),
		gcPause: r.Histogram("stamp_runtime_gc_pause_seconds", "Stop-the-world GC pause durations.",
			ExpBuckets(1e-6, 4, 10)), // 1µs .. ~260ms
	}
	// The same quantity as MemStats.HeapAlloc, without ReadMemStats'
	// stop-the-world.
	c.heap[0].Name = "/memory/classes/heap/objects:bytes"
	r.OnScrape(c.refresh)
}

// refresh pulls the current runtime state into the metrics. GC pauses
// are drained from the runtime's ring of the last 256 pauses — which
// ReadGCStats returns most recent first — by cycle number, so each
// pause is observed exactly once no matter how rarely scrapes happen
// (older ones are simply lost, which keeps the histogram honest rather
// than double-counted).
func (c *runtimeCollector) refresh() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.goroutines.Set(int64(runtime.NumGoroutine()))
	metrics.Read(c.heap[:])
	if v := c.heap[0].Value; v.Kind() == metrics.KindUint64 {
		c.heapBytes.Set(int64(v.Uint64()))
	}
	debug.ReadGCStats(&c.gc)
	if n := c.gc.NumGC; n > c.lastNumGC {
		c.numGC.Add(n - c.lastNumGC)
		// Pause[k] is cycle n-k's pause; observe the new ones oldest
		// first.
		for i := max(c.lastNumGC, n-int64(len(c.gc.Pause))); i < n; i++ {
			c.gcPause.Observe(float64(c.gc.Pause[n-1-i]) / 1e9)
		}
		c.lastNumGC = n
	}
}
