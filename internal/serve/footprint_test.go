package serve

import (
	"runtime"
	"testing"
	"unsafe"

	"stamp/internal/atlas"
	"stamp/internal/prov"
	"stamp/internal/scenario"
)

// footprintSlack is what a destination may allocate in serve.New beyond
// the three buffers it owns: its shard struct, its index-map entry and
// its share of the boot pool's per-trial bookkeeping. A trace ring
// (2,048 spans of ~384 B) does not fit in it.
const footprintSlack = 32 << 10

// TestServeFootprintPerDestination holds what serve.New allocates per
// added destination (the difference between a 4- and a 2-destination
// server, over 2) to what a destination owns: its atlas.State, its
// packed snapshot words (one per plane and AS) and its provenance
// journal, plus footprintSlack. Every byte a shard is given beyond that
// is paid again at each of the hundreds of destinations a deployment
// serves.
func TestServeFootprintPerDestination(t *testing.T) {
	g := testGraph(t, 2000)
	alloc := func(f func()) uint64 {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	// The least of three boots, so that an allocation made meanwhile by
	// another goroutine does not count.
	boot := func(dests int) uint64 {
		least := ^uint64(0)
		for range 3 {
			least = min(least, alloc(func() {
				if _, err := New(Config{Graph: g, Scenario: scenario.FlapStorm, Dests: dests, Seed: 7, Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	perDest := (int64(boot(4)) - int64(boot(2))) / 2

	eng := atlas.NewEngine(g, atlas.DefaultParams())
	eng.NewState() // stocks the engine's first window
	state := alloc(func() { eng.NewState() })
	snapshot := uint64(atlas.PlaneCount * g.Len() * 8)
	journal := uint64(4096 * unsafe.Sizeof(prov.Entry{})) // Config.ProvCap's default
	owned := state + snapshot + journal
	t.Logf("N=%d: %d B per added destination; owns state %d + snapshot %d + journal %d B", g.Len(), perDest, state, snapshot, journal)
	if perDest > int64(owned+footprintSlack) {
		t.Fatalf("serve.New allocates %d B per added destination at N=%d, want at most %d B "+
			"(state %d + snapshot %d + journal %d + slack %d)",
			perDest, g.Len(), owned+footprintSlack, state, snapshot, journal, footprintSlack)
	}
}
