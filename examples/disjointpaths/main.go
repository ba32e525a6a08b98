// Disjointpaths: the Φ analysis of §6.1 — how likely is it that STAMP's
// random locked-blue-provider selection leaves every AS with both a red
// and a blue path to each destination, and how much does intelligent
// selection at the origin help?
//
//	go run ./examples/disjointpaths
package main

import (
	"fmt"
	"log"
	"os"

	"stamp/internal/lab"
)

// run executes one registry experiment on the example's topology.
func run(name string) *lab.Result {
	res, err := lab.Run(lab.Request{Experiment: name, Topo: lab.TopoSpec{N: 1500}, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	env := run("figure1")
	random := env.Data.(*lab.Figure1Result)
	fmt.Printf("topology: %d ASes, %d links, %d tier-1s\n\n", env.Topology.ASes, env.Topology.Links, env.Topology.Tier1s)

	random.Print(os.Stdout)
	fmt.Println()

	intelligent := run("figure1-intelligent").Data.(*lab.Figure1Result)
	intelligent.Print(os.Stdout)
	fmt.Println()

	partial := run("partial").Data.(*lab.PartialDeploymentResult)
	partial.Print(os.Stdout)

	fmt.Println()
	fmt.Printf("summary: random Φ=%.3f → intelligent Φ=%.3f (paper: 0.92 → 0.97);\n",
		random.Mean, intelligent.Mean)
	fmt.Printf("tier-1-only deployment still protects %.0f%% of ASes (paper: ~75%%).\n",
		100*partial.ProtectedFrac)
}
