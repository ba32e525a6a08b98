package lab

import (
	"testing"
	"time"
)

// TestSimEmuTransientParity is the transient-deliverability analogue of
// emu's control-plane parity fixtures, run through the loss experiment's
// emu backend (the production path since the parity recipe moved here
// from internal/traffic): the same flows driven through the live fabric
// and through the simulator reference must settle every source into the
// same final data-plane fate over the same-length path. The transient
// windows themselves are logged, not gated — wall-clock and virtual-time
// orderings legitimately explore different intermediate states.
func TestSimEmuTransientParity(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live fabric")
	}
	res, err := Run(Request{
		Experiment: "loss", Backend: "emu",
		Topo: TopoSpec{N: 60, Seed: 1}, Seed: 1,
		Scenario: "link-failure",
		Tick:     10 * time.Millisecond, Ticks: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res.Data.(*LossParity)
	if !ok {
		t.Fatalf("Data is %T, want *LossParity", res.Data)
	}
	for _, d := range p.Divergences {
		t.Errorf("divergence: %v", d)
	}
	if res.Divergences != len(p.Divergences) {
		t.Errorf("envelope divergences = %d, payload has %d", res.Divergences, len(p.Divergences))
	}
	// The live fleet must have delivered every source at the fixpoint
	// (the fixture's destination stays reachable).
	if bad := len(p.Live.Final.Status) - p.Live.Final.Delivered(); bad != 0 {
		t.Errorf("live fleet: %d sources undelivered after convergence", bad)
	}
	t.Logf("parity: sim everAffected=%d live everAffected=%d, sim lost=%d live lost=%d packet-ticks, %d divergences",
		p.Sim.EverAffected, p.Live.EverAffected,
		p.Sim.LostPacketTicks, p.Live.LostPacketTicks, len(p.Divergences))
}
