package traffic

import (
	"context"
	"fmt"
	"testing"

	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/topology"
)

// TestTransientSweepsMatchOracles: every coalesced sweep of a transient
// trial — every scenario kind, the four protocols — classifies the
// paused nodes exactly as the reference walks do when run on the same
// nodes: oracleSingle for BGP, oracleRBGP for R-BGP and oracleStamp for
// STAMP.
func TestTransientSweepsMatchOracles(t *testing.T) {
	g := genGraph(t, 80, 3)
	sweeps, undelivered := 0, 0
	for _, proto := range AllProtocols() {
		eachScenario(t, g, func(name string, script scenario.Script) {
			probe := &simProbe{sampled: func(in *instance, w *Walk) {
				var ref Walk
				switch proto {
				case BGP:
					nodes := in.bgpNodes
					oracleSingle(g.Len(), in.dest, func(v topology.ASN) (topology.ASN, bool) { return nodes[v].NextHop() }, &ref)
				case RBGPNoRCI, RBGP:
					oracleRBGP(g.Len(), in.dest, liveRBGP{in.rbgp}, nil, &ref)
				default:
					oracleStamp(g.Len(), in.dest, liveStamp(in.stampNodes), &ref)
				}
				sameWalk(t, fmt.Sprintf("%v/%s at t=%v", proto, name, in.e.Now()), w, &ref)
				sweeps++
				undelivered += len(w.Status) - w.Delivered()
			}}
			if _, err := runTransientTrial(context.Background(), g, sim.DefaultParams(), proto, script, 23, probe); err != nil {
				t.Fatalf("%v/%s: %v", proto, name, err)
			}
		})
	}
	t.Logf("%d sweeps compared, %d undelivered source samples among them", sweeps, undelivered)
	if sweeps < 500 || undelivered == 0 {
		t.Errorf("fixture too quiet: %d sweeps, %d undelivered source samples", sweeps, undelivered)
	}
}
