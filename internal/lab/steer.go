package lab

import "stamp/internal/steer"

// The steering experiments: the four-arm user-perceived-latency grid
// (BGP / R-BGP / color-locked STAMP / STAMP-steer) from internal/steer,
// preset per quality-workload family. Both presets honor -scenario, so
// `stamp run steer-latency -scenario oscillating-congestion` measures
// flap damping without a third registry entry.
func init() {
	flags := []string{"trials", "scenario", "protocol", "flows", "tick", "ticks",
		"steer-degrade-ms", "steer-comfort-ms", "steer-max-ms", "steer-n", "steer-cooldown"}
	Register(Experiment{
		Name: "steer-latency", Desc: "four-arm latency steering grid: does health-driven color steering beat locked STAMP under latency brownouts?",
		DefaultN:        400,
		DefaultScenario: "latency-brownout",
		Flags:           flags,
		Run:             runSteer,
	})
	Register(Experiment{
		Name: "steer-loss", Desc: "four-arm latency steering grid under gray failures (silent packet loss instead of latency inflation)",
		DefaultN:        400,
		DefaultScenario: "gray-failure",
		Flags:           flags,
		Run:             runSteer,
	})
}

func runSteer(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	protos, err := req.protocols(true)
	if err != nil {
		return nil, err
	}
	res, err := steer.RunGrid(steer.GridOpts{
		G: g, Trials: req.Trials, Seed: req.Seed, Scenario: req.Scenario,
		Protocols: protos, Flows: req.Flows, Tick: req.Tick, Ticks: req.Ticks,
		Config: req.Steer, Workers: req.Workers,
		Progress: req.Progress, Context: req.ctx(),
	})
	if err != nil {
		return nil, err
	}
	return req.envelope("sim", graphInfo(g), res), nil
}
