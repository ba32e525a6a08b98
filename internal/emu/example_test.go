package emu_test

import (
	"fmt"
	"log"

	"stamp/internal/emu"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// Run a miniature STAMP deployment over real TCP on localhost. Four ASes
// form the diamond
//
//	    AS3 (tier-1)
//	   /     \
//	AS1       AS2
//	   \     /
//	    AS0  (origin, multihomed)
//
// where every link carries one live red and one live blue session. The
// origin announces its prefix blue and locked to one provider and red to
// the other, so the tier-1 holds both colours through different
// customers. Failing the locked blue link re-roots blue through the
// other provider, and the final tables equal the discrete-event
// simulator's on the same script.
func ExampleFabric() {
	g := topology.NewGraph(4)
	for _, l := range [][2]topology.ASN{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddProviderLink(l[0], l[1]); err != nil {
			log.Fatal(err)
		}
	}
	script := scenario.Script{
		Name:   "fail-locked-blue-link",
		Dest:   0,
		Events: []scenario.Event{{Op: scenario.OpFailLink, A: 0, B: 1}},
	}

	f, err := emu.New(emu.Options{Graph: g, Transport: "tcp"})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := f.Boot(); err != nil {
		log.Fatal(err)
	}
	f.Originate(script.Dest)
	if err := f.WaitConverged(); err != nil {
		log.Fatal(err)
	}
	t := f.Tables()
	fmt.Printf("AS3 red %v blue %v\n", t.Red[3], t.Blue[3])

	// Kill the locked blue link for real and let blue re-root.
	if err := f.RunScript(script); err != nil {
		log.Fatal(err)
	}
	if err := f.WaitConverged(); err != nil {
		log.Fatal(err)
	}
	t = f.Tables()
	fmt.Printf("after failing AS0--AS1: AS3 red %v blue %v\n", t.Red[3], t.Blue[3])

	// Differential validation against the simulator.
	simT, err := emu.SimTables(nil, g, script, emu.ReferenceParams(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("divergences from the simulator: %d\n", len(simT.Diff(t)))
	// Output:
	// AS3 red [2 0] blue [1 0]
	// after failing AS0--AS1: AS3 red [2 0] blue [2 0]
	// divergences from the simulator: 0
}
