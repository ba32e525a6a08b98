package lab

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"stamp/internal/scenario"
	"stamp/internal/traffic"
)

// TestRegistryLookup: the registry resolves names, rejects unknowns,
// and validates backends before running anything.
func TestRegistryLookup(t *testing.T) {
	if len(Names()) < 9 {
		t.Fatalf("registry has %d experiments, want >= 9 (the pre-redesign harness count)", len(Names()))
	}
	if _, err := Run(Request{Experiment: "no-such-harness"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment error = %v", err)
	}
	if _, err := Run(Request{Experiment: "figure2", Backend: "emu"}); err == nil || !strings.Contains(err.Error(), "supports backends") {
		t.Errorf("unsupported backend error = %v", err)
	}
	if _, err := Run(Request{Experiment: "transient", Protocols: []string{"ospf"}}); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("bad protocol error = %v", err)
	}
	// The sweep generates its own grid; a loaded topology file must be
	// rejected loudly rather than silently ignored.
	if _, err := Run(Request{Experiment: "sweep", Topo: TopoSpec{Path: "asrel.txt"}}); err == nil || !strings.Contains(err.Error(), "-topo is not supported") {
		t.Errorf("sweep -topo error = %v", err)
	}
}

// TestParseProtocol: the CLI spellings map onto the experiment enum.
func TestParseProtocol(t *testing.T) {
	for name, want := range map[string]traffic.Protocol{
		"bgp": traffic.BGP, "rbgp-norci": traffic.RBGPNoRCI,
		"rbgp": traffic.RBGP, "stamp": traffic.STAMP,
	} {
		got, err := Request{Protocols: []string{name}}.protocols(false)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Errorf("protocols(%q) = %v, %v", name, got, err)
		}
	}
}

// TestDuplicateProtocolIsUsage: a protocol named twice would merge two
// shard streams into one row and count every trial twice, so every
// experiment that takes -protocol refuses it as a usage error before
// running anything.
func TestDuplicateProtocolIsUsage(t *testing.T) {
	for _, req := range []Request{
		{Experiment: "transient", Protocols: []string{"bgp", "bgp"}},
		{Experiment: "sweep", TopoSeeds: []int64{1}, Protocols: []string{"stamp", "rbgp", "stamp"}},
		{Experiment: "loss", Backend: "sim", Protocols: []string{"stamp", "stamp"}},
		{Experiment: "loss", Backend: "emu", Protocols: []string{"stamp", "stamp"}},
		{Experiment: "steer-latency", Protocols: []string{"stamp-steer", "stamp-steer"}},
	} {
		req.Topo.N, req.Trials, req.Ticks = 40, 1, 10
		_, err := Run(req)
		if !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), "named twice") {
			t.Errorf("%s/%s %v: err = %v, want a usage error", req.Experiment, req.Backend, req.Protocols, err)
		}
	}
}

// TestRunDropsUndeclared: an entry that does not read trials reports
// none, and a preset pins its scenario whatever the request says.
func TestRunDropsUndeclared(t *testing.T) {
	res, err := Run(Request{Experiment: "partial", Topo: TopoSpec{N: 60}, Trials: 5, Scenario: "node-failure"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 0 || res.Scenario != "" {
		t.Errorf("partial envelope trials %d, scenario %q; want neither", res.Trials, res.Scenario)
	}
	if testing.Short() {
		return
	}
	res, err = Run(Request{Experiment: "figure2", Topo: TopoSpec{N: 60}, Trials: 1, Scenario: "node-failure", Protocols: []string{"bgp"}})
	if err != nil {
		t.Fatal(err)
	}
	if data := res.Data.(*TransientResult); res.Scenario != "single-link" || data.Scenario != scenario.SingleLink {
		t.Errorf("figure2 ran scenario %q (%v), want its preset single-link", res.Scenario, data.Scenario)
	}
}

// TestSteerArmOnlyInSteerExperiments: the steering arm needs the link
// cost model and policy only the steer grid supplies, so every other
// experiment refuses it as a usage error that names the steer
// experiments, instead of silently running color-locked STAMP.
func TestSteerArmOnlyInSteerExperiments(t *testing.T) {
	for _, req := range []Request{
		{Experiment: "transient"},
		{Experiment: "figure3b"},
		{Experiment: "sweep", TopoSeeds: []int64{1}},
		{Experiment: "loss", Backend: "sim"},
		{Experiment: "loss", Backend: "emu"},
	} {
		req.Topo.N, req.Trials, req.Ticks, req.Protocols = 40, 1, 10, []string{"stamp-steer"}
		_, err := Run(req)
		if !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), "steer-latency") {
			t.Errorf("%s/%s: err = %v, want a usage error naming the steer experiments", req.Experiment, req.Backend, err)
		}
	}
}

// TestTransientLinkFlapViaRegistry: the acceptance path — a LinkFlap
// script (restores included) runs end to end through the registry's
// transient experiment.
func TestTransientLinkFlapViaRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round flap simulation")
	}
	res, err := Run(Request{
		Experiment: "transient", Scenario: "link-flap",
		Topo: TopoSpec{N: 80}, Trials: 1, Protocols: []string{"stamp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, ok := res.Data.(*TransientResult)
	if !ok {
		t.Fatalf("Data is %T, want *TransientResult", res.Data)
	}
	if data.Scenario != scenario.LinkFlap {
		t.Errorf("scenario = %v", data.Scenario)
	}
}

// TestTransientPrefixWithdrawViaRegistry: prefix-withdraw is a
// first-class scenario kind, so the transient harness (and by extension
// the sweep) accepts it like any failure workload.
func TestTransientPrefixWithdrawViaRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res, err := Run(Request{
		Experiment: "transient", Scenario: "prefix-withdraw",
		Topo: TopoSpec{N: 80}, Trials: 1, Protocols: []string{"bgp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "prefix-withdraw" {
		t.Errorf("scenario = %q", res.Scenario)
	}
}

// TestBackendDifferential: the acceptance criterion — the loss and
// emu-converge experiments run on both backends through the shared
// Backend interface, and the emu runs' differential diff against the
// sim reference is empty.
func TestBackendDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live fabrics")
	}
	for _, tc := range []Request{
		{Experiment: "loss", Backend: "sim", Topo: TopoSpec{N: 50}, Trials: 1, Ticks: 60, Protocols: []string{"stamp"}},
		{Experiment: "loss", Backend: "emu", Topo: TopoSpec{N: 50}, Ticks: 30},
		{Experiment: "emu-converge", Backend: "sim", Topo: TopoSpec{N: 50}},
		{Experiment: "emu-converge", Backend: "emu", Topo: TopoSpec{N: 50}},
	} {
		res, err := Run(tc)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.Experiment, tc.Backend, err)
		}
		if res.Backend != tc.Backend {
			t.Errorf("%s: backend = %q, want %q", tc.Experiment, res.Backend, tc.Backend)
		}
		if res.Divergences != 0 {
			t.Errorf("%s/%s: %d divergences, want 0", tc.Experiment, tc.Backend, res.Divergences)
		}
	}
}

// TestRunCanceled: a pre-canceled request context aborts the run with
// the context error instead of computing anything.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Request{Experiment: "figure2", Topo: TopoSpec{N: 60}, Trials: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEnvelopeDeterministicAcrossWorkers: the marshaled envelope — the
// exact bytes `stamp run -json` emits — must be identical for any
// worker count.
func TestEnvelopeDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var snaps [][]byte
	for _, workers := range []int{1, 4} {
		res, err := Run(Request{
			Experiment: "transient", Topo: TopoSpec{N: 100}, Trials: 2, Seed: 7,
			Protocols: []string{"bgp", "stamp"}, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, b)
	}
	if string(snaps[0]) != string(snaps[1]) {
		t.Errorf("envelope differs between workers=1 and workers=4")
	}
}
