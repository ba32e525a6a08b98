// Failover: replay the paper's headline experiment in miniature — fail a
// provider link of a multihomed destination and watch how many ASes
// suffer transient loops or blackholes under BGP, R-BGP, and STAMP.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"os"

	"stamp/internal/lab"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

func main() {
	g, err := topology.GenerateDefault(800, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d ASes, %d links\n\n", g.Len(), g.EdgeCount())

	fmt.Println("Single provider-link failure at a multihomed destination")
	fmt.Println("(Figure 2 workload, miniature scale):")
	res, err := lab.RunTransient(lab.TransientOpts{
		G: g, Trials: 8, Seed: 3, Scenario: scenario.SingleLink,
	})
	if err != nil {
		log.Fatal(err)
	}
	res.Print(os.Stdout)

	fmt.Println()
	fmt.Println("Two link failures sharing an AS (Figure 3(b) workload):")
	res, err = lab.RunTransient(lab.TransientOpts{
		G: g, Trials: 8, Seed: 5, Scenario: scenario.TwoLinksShared,
	})
	if err != nil {
		log.Fatal(err)
	}
	res.Print(os.Stdout)

	fmt.Println()
	fmt.Println("STAMP treats both failed links as one routing event (they share")
	fmt.Println("an AS node), so its node-disjoint paths keep working — that is")
	fmt.Println("the scenario where the paper shows STAMP beating even R-BGP.")
}
