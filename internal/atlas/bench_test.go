package atlas

import (
	"math/rand"
	"testing"

	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// benchSeed is the seed of the repository's benchmark topologies (the
// root package's bench_test.go uses the same one).
const benchSeed = 9

// BenchmarkAtlasConverge prices the atlas tentpole on a 10,000-AS
// topology: one full destination shard — three-plane initial
// convergence plus a flap-storm script — on the flat slab engine vs the
// map-based reference (identical algorithm and outcomes, classic
// per-AS-map storage). The flat/map ns-per-op ratio is the subsystem's
// headline speedup; the flat variant must report 0 allocs/op (also
// pinned by TestConvergeHotLoopAllocs).
func BenchmarkAtlasConverge(b *testing.B) {
	const n = 10_000
	tg, err := topology.GenerateDefault(n, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	g, err := FromTopology(tg)
	if err != nil {
		b.Fatal(err)
	}
	script, err := scenario.PickScript(g, scenario.Multihomed(g), scenario.FlapStorm,
		rand.New(rand.NewSource(benchSeed)))
	if err != nil {
		b.Fatal(err)
	}
	groups := GroupEvents(script)
	dests, err := Destinations(g, 1, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	dest := dests[0]

	b.Run("flat", func(b *testing.B) {
		eng := NewEngine(g, DefaultParams())
		st := eng.NewState()
		b.ReportAllocs()
		b.ResetTimer()
		var rounds int32
		for i := 0; i < b.N; i++ {
			out, err := eng.ConvergeDest(st, dest, groups)
			if err != nil {
				b.Fatal(err)
			}
			rounds = out.BGP.InitRounds + out.BGP.ReconvRounds
		}
		b.ReportMetric(float64(rounds), "bgp-rounds")
	})
	b.Run("map", func(b *testing.B) {
		eng := NewMapEngine(g, DefaultParams())
		st := eng.NewState()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ConvergeDest(st, dest, groups); err != nil {
				b.Fatal(err)
			}
		}
	})
}
