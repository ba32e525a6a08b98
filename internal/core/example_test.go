package core_test

import (
	"fmt"
	"log"

	"stamp/internal/core"
	"stamp/internal/sim"
	"stamp/internal/testkit"
	"stamp/internal/topology"
)

// Build a small AS topology, run STAMP to convergence on the
// event-driven simulator, and inspect the complementary red and blue
// paths a few ASes obtain.
func ExampleNode() {
	// A synthetic Internet-like topology: tier-1 clique on top, transit
	// providers in the middle, multihomed stubs at the edge.
	g, err := topology.GenerateDefault(200, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d ASes, %d links, tier-1s %v\n", g.Len(), g.EdgeCount(), g.Tier1s())

	// One simulation = one destination prefix. Pick a multihomed stub.
	var dest topology.ASN
	for a := g.Len() - 1; a >= 0; a-- {
		if g.IsMultihomed(topology.ASN(a)) {
			dest = topology.ASN(a)
			break
		}
	}
	fmt.Printf("destination AS %d (providers %v)\n", dest, g.Providers(dest))

	// Wire a STAMP node (red + blue process) into every AS.
	engine := sim.NewEngine(sim.DefaultParams(), 7)
	network := sim.NewNetwork(engine, g)
	nodes := make([]*core.Node, g.Len())
	for a := 0; a < g.Len(); a++ {
		nodes[a] = core.NewNode(topology.ASN(a), g, engine, network)
	}

	// Originate the prefix and run the event-driven simulation until all
	// processes converge.
	nodes[dest].Originate()
	events, err := engine.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged after %d events (%.1fs simulated)\n", events, engine.Now().Seconds())
	fmt.Printf("locked blue provider of origin: AS %d\n", nodes[dest].LockedProvider())

	// Show the complementary paths a few ASes hold.
	shown := 0
	for a := 0; a < g.Len() && shown < 3; a++ {
		if topology.ASN(a) == dest {
			continue
		}
		red, blue := nodes[a].Red.Best(), nodes[a].Blue.Best()
		if red == nil || blue == nil {
			continue
		}
		rp := append([]topology.ASN{topology.ASN(a)}, red.Path...)
		bp := append([]topology.ASN{topology.ASN(a)}, blue.Path...)
		disjoint, err := testkit.DownhillDisjoint(g, rp, bp)
		if err != nil {
			continue
		}
		fmt.Printf("AS %d red %v blue %v (downhill disjoint: %v)\n", a, rp, bp, disjoint)
		shown++
	}
	// Output:
	// topology: 200 ASes, 499 links, tier-1s [0 1 2 3 4]
	// destination AS 198 (providers [11 4 2 27])
	// converged after 2012 events (58.5s simulated)
	// locked blue provider of origin: AS 2
	// AS 0 red [0 4 198] blue [0 2 198] (downhill disjoint: true)
	// AS 1 red [1 11 198] blue [1 2 198] (downhill disjoint: true)
	// AS 2 red [2 11 198] blue [2 198] (downhill disjoint: true)
}
