package lab

import (
	"bytes"
	"encoding/json"
	"testing"

	"stamp/internal/steer"
	"stamp/internal/traffic"
)

// TestSteerBeatsLockedOnBrownout is the steering subsystem's acceptance
// headline: under latency brownouts the steering arm's user-perceived
// latency must be strictly better than color-locked STAMP's — same
// control plane, same workloads, same latency model; only the
// per-source color decisions differ.
func TestSteerBeatsLockedOnBrownout(t *testing.T) {
	res := runData[*SteerResult](t, Request{
		Experiment: "steer-latency", Topo: TopoSpec{N: 80, Seed: 3}, Trials: 4, Seed: 5,
		Scenario: "latency-brownout",
		Ticks:    160,
	})
	if res.SteerLatencyMs <= 0 || res.LockedLatencyMs <= 0 {
		t.Fatalf("missing headline latencies: steer %v, locked %v", res.SteerLatencyMs, res.LockedLatencyMs)
	}
	if res.SteerLatencyMs >= res.LockedLatencyMs {
		t.Fatalf("steering did not beat locking: steer %.3fms >= locked %.3fms (ratio %.3f)",
			res.SteerLatencyMs, res.LockedLatencyMs, res.SteerVsLockedRatio)
	}
	if res.SteerVsLockedRatio <= 0 || res.SteerVsLockedRatio >= 1 {
		t.Fatalf("ratio %v inconsistent with a steering win", res.SteerVsLockedRatio)
	}
	arm := res.Arm(traffic.STAMPSteer)
	if arm == nil || arm.Switches.Sum == 0 {
		t.Fatal("the steering arm never switched — the win has no mechanism")
	}
	// The non-STAMP arms rode along: all four must have measurements.
	for _, a := range res.Arms {
		if a.UserLatencyMs.Count != int64(res.Trials) {
			t.Fatalf("%v: %v trials accumulated, want %d", a.Proto, a.UserLatencyMs.Count, res.Trials)
		}
	}
}

// TestOscillationCooldownBoundsSwitches: when congestion oscillates
// between two provider links, the cooldown must bound the switch count;
// a hair-trigger policy (no debounce, no cooldown) flaps strictly more.
func TestOscillationCooldownBoundsSwitches(t *testing.T) {
	req := Request{
		Experiment: "steer-latency", Topo: TopoSpec{N: 80, Seed: 3}, Trials: 3, Seed: 11,
		Scenario:  "oscillating-congestion",
		Ticks:     120,
		Protocols: []string{"stamp", "stamp-steer"},
	}
	def := runData[*SteerResult](t, req)
	hair := req
	hair.Steer = steer.Config{Consecutive: 1, CooldownTicks: -1}
	flappy := runData[*SteerResult](t, hair)

	defSw := def.Arm(traffic.STAMPSteer).Switches
	hairSw := flappy.Arm(traffic.STAMPSteer).Switches
	if hairSw.Sum == 0 {
		t.Fatal("hair-trigger policy never switched; the scenario exerts no steering pressure")
	}
	if defSw.Sum >= hairSw.Sum {
		t.Fatalf("cooldown did not reduce flapping: default %v switches >= hair-trigger %v", defSw.Sum, hairSw.Sum)
	}
	// Hard bound: after every switch a source is frozen for
	// CooldownTicks, so per trial it can switch at most
	// 1 + Ticks/CooldownTicks times.
	perSource := 1 + req.Ticks/def.Config.CooldownTicks
	bound := float64(smokeGraph(t, 80, 3).Len() * perSource)
	if defSw.Max > bound {
		t.Fatalf("a trial switched %v times, above the cooldown bound %v", defSw.Max, bound)
	}
}

// TestGridWorkersDeterminism: the aggregated grid result must be
// byte-identical for any worker count.
func TestGridWorkersDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		res := runData[*SteerResult](t, Request{
			Experiment: "steer-loss", Topo: TopoSpec{N: 60, Seed: 5}, Trials: 2, Seed: 9,
			Scenario: "gray-failure",
			Ticks:    80,
			Workers:  workers,
		})
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	w1 := run(1)
	w4 := run(4)
	if !bytes.Equal(w1, w4) {
		t.Fatalf("grid result depends on worker count:\n-workers 1: %s\n-workers 4: %s", w1, w4)
	}
}
