package lab

import (
	"testing"

	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/traffic"
)

// TestFigure2Shape asserts the qualitative result of Figure 2 on a
// mid-size topology: BGP suffers by far the most transient problems;
// R-BGP and STAMP are both dramatically better.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	g := smokeGraph(t, 800, 9)
	res, err := RunTransient(TransientOpts{
		G: g, Trials: 12, Seed: 2, Scenario: scenario.SingleLink,
	})
	if err != nil {
		t.Fatal(err)
	}
	bgp := res.Stats[traffic.BGP].MeanAffected
	noRCI := res.Stats[traffic.RBGPNoRCI].MeanAffected
	rbgp := res.Stats[traffic.RBGP].MeanAffected
	stamp := res.Stats[traffic.STAMP].MeanAffected
	t.Logf("BGP=%.1f noRCI=%.1f R-BGP=%.1f STAMP=%.1f", bgp, noRCI, rbgp, stamp)
	if bgp < 20 {
		t.Fatalf("BGP suffered too few transient problems (%.1f) for a meaningful comparison", bgp)
	}
	if stamp > bgp/4 {
		t.Errorf("STAMP (%.1f) should be far below BGP (%.1f)", stamp, bgp)
	}
	if rbgp > bgp/2 {
		t.Errorf("R-BGP (%.1f) should be far below BGP (%.1f)", rbgp, bgp)
	}
	if noRCI > bgp {
		t.Errorf("R-BGP without RCI (%.1f) should not exceed BGP (%.1f)", noRCI, bgp)
	}
}

// TestFigure3bShape asserts the paper's headline multi-failure claim:
// when two failed links share an AS, STAMP's node-disjoint protection
// roughly halves the damage relative to R-BGP. STAMP's per-trial affected
// counts are heavy-tailed at this topology scale (median 0, occasional
// 200+ blowups), so the mean comparison needs a large trial count to
// escape sampling noise; the sharded runner keeps 100 trials affordable.
func TestFigure3bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	g := smokeGraph(t, 800, 9)
	res, err := RunTransient(TransientOpts{
		G: g, Trials: 100, Seed: 3, Scenario: scenario.TwoLinksShared,
		Protocols: []traffic.Protocol{traffic.BGP, traffic.RBGP, traffic.STAMP},
	})
	if err != nil {
		t.Fatal(err)
	}
	bgp := res.Stats[traffic.BGP].MeanAffected
	rbgp := res.Stats[traffic.RBGP].MeanAffected
	stamp := res.Stats[traffic.STAMP].MeanAffected
	t.Logf("BGP=%.1f R-BGP=%.1f STAMP=%.1f", bgp, rbgp, stamp)
	if stamp > bgp/2 {
		t.Errorf("STAMP (%.1f) should be far below BGP (%.1f)", stamp, bgp)
	}
	if stamp > rbgp {
		t.Errorf("STAMP (%.1f) should beat R-BGP (%.1f) on shared-AS double failures", stamp, rbgp)
	}
}

// TestOverheadShape asserts §6.3's message overhead claim: STAMP's two
// processes generate less than twice the updates of one BGP process.
func TestOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	g := smokeGraph(t, 600, 15)
	res, err := RunTransient(TransientOpts{
		G: g, Trials: 6, Seed: 5, Scenario: scenario.SingleLink,
		Protocols: []traffic.Protocol{traffic.BGP, traffic.STAMP},
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := res.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("initial updates: BGP=%.0f STAMP=%.0f ratio=%.2f", o.BGPUpdates, o.STAMPUpdates, o.Ratio)
	if o.Ratio >= 2.0 {
		t.Errorf("STAMP/BGP initial update ratio = %.2f, paper claims < 2", o.Ratio)
	}
	if o.Ratio <= 1.0 {
		t.Errorf("STAMP/BGP ratio = %.2f is implausibly low", o.Ratio)
	}
}

// TestConvergenceShape asserts §6.3's convergence claim: STAMP's
// convergence after a single link failure is comparable to (the paper
// says faster than) standard BGP's.
func TestConvergenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	g := smokeGraph(t, 600, 15)
	res, err := RunTransient(TransientOpts{
		G: g, Trials: 8, Seed: 7, Scenario: scenario.SingleLink,
		Protocols: []traffic.Protocol{traffic.BGP, traffic.STAMP},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := res.Convergence()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("convergence: BGP=%v STAMP=%v", c.BGP, c.STAMP)
	if c.STAMP > 2*c.BGP {
		t.Errorf("STAMP convergence (%v) should be comparable to BGP's (%v)", c.STAMP, c.BGP)
	}
}

// TestPartialDeploymentShape asserts §6.3's partial deployment claim:
// tier-1-only deployment still protects a majority of ASes, but fewer
// than full deployment.
func TestPartialDeploymentShape(t *testing.T) {
	res := runData[*PartialDeploymentResult](t, Request{Experiment: "partial", Topo: TopoSpec{N: 800, Seed: 9}})
	t.Logf("partial=%.2f full=%.2f (deployed at %d tier-1s)", res.ProtectedFrac, res.FullFrac, res.DeployedCount)
	if res.ProtectedFrac < 0.4 {
		t.Errorf("tier-1 deployment protects only %.2f, expected a majority", res.ProtectedFrac)
	}
	if res.ProtectedFrac > res.FullFrac {
		t.Errorf("partial (%.2f) exceeds full deployment bound (%.2f)", res.ProtectedFrac, res.FullFrac)
	}
}

// TestFigure1Shape asserts §6.1: mean Φ lands in the high-0.8s or better
// on Internet-like topologies, and intelligent selection improves it.
func TestFigure1Shape(t *testing.T) {
	topo := TopoSpec{N: 1500, Seed: 25}
	random := runData[*Figure1Result](t, Request{Experiment: "figure1", Topo: topo})
	intel := runData[*Figure1Result](t, Request{Experiment: "figure1-intelligent", Topo: topo})
	t.Logf("random mean Φ=%.3f (≤0.7: %.1f%%, >0.9: %.1f%%); intelligent mean Φ=%.3f",
		random.Mean, 100*random.FracBelow07, 100*random.FracAbove09, intel.Mean)
	if random.Mean < 0.8 {
		t.Errorf("mean Φ = %.3f, expected ≳ 0.85 on Internet-like topology", random.Mean)
	}
	if intel.Mean < random.Mean {
		t.Errorf("intelligent Φ (%.3f) below random (%.3f)", intel.Mean, random.Mean)
	}
	if random.FracBelow07 > 0.25 {
		t.Errorf("%.1f%% of destinations have Φ<=0.7, paper reports <10%%", 100*random.FracBelow07)
	}
}

// TestTransientResultPrint exercises the report rendering.
func TestTransientResultPrint(t *testing.T) {
	g := smokeGraph(t, 120, 7)
	res, err := RunTransient(TransientOpts{G: g, Trials: 1, Seed: 1, Scenario: scenario.SingleLink})
	if err != nil {
		t.Fatal(err)
	}
	var sb stringsBuilder
	res.Print(&sb)
	if sb.Len() == 0 {
		t.Error("empty report")
	}
	if o, err := res.Overhead(); err != nil {
		t.Error(err)
	} else {
		o.Print(&sb)
	}
	if c, err := res.Convergence(); err != nil {
		t.Error(err)
	} else {
		c.Print(&sb)
	}
	topo := TopoSpec{N: 120, Seed: 7}
	runData[*Figure1Result](t, Request{Experiment: "figure1", Topo: topo}).Print(&sb)
	runData[*PartialDeploymentResult](t, Request{Experiment: "partial", Topo: topo}).Print(&sb)
}

// TestNodeFailureScenario exercises the scenario.NodeFailure workload.
func TestNodeFailureScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	g := smokeGraph(t, 300, 5)
	res, err := RunTransient(TransientOpts{
		G: g, Trials: 3, Seed: 11, Scenario: scenario.NodeFailure,
		Protocols: []traffic.Protocol{traffic.BGP, traffic.STAMP},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("node failure: BGP=%.1f STAMP=%.1f",
		res.Stats[traffic.BGP].MeanAffected, res.Stats[traffic.STAMP].MeanAffected)
}

// TestRunTransientValidation covers option validation.
func TestRunTransientValidation(t *testing.T) {
	if _, err := RunTransient(TransientOpts{}); err == nil {
		t.Error("nil topology accepted")
	}
	g := smokeGraph(t, 60, 1)
	res, err := RunTransient(TransientOpts{
		G: g, Scenario: scenario.SingleLink, Seed: 1,
		Protocols: []traffic.Protocol{traffic.BGP},
		Params:    sim.Params{MinDelay: 1, MaxDelay: 2, MRAIEnabled: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 1 {
		t.Errorf("default trials = %d, want 1", res.Trials)
	}
}

// stringsBuilder is a minimal io.Writer for report tests.
type stringsBuilder struct{ b []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}
func (s *stringsBuilder) Len() int { return len(s.b) }
