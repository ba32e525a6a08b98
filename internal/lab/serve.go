package lab

import (
	"context"
	"time"

	"stamp/internal/scenario"
	"stamp/internal/serve"
)

// The serve-load experiment: boot the always-on service mode on a
// loopback port, replay the scenario against it live, and hammer it
// with the read swarm. The payload is the client-observed latency
// picture — the numbers behind the read-p99 SLO the service mode
// promises.
func init() {
	Register(Experiment{
		Name: "serve-load", Desc: "service-mode load harness: live replay + concurrent read swarm against stamp serve, reporting read/scrape latency quantiles and counter monotonicity",
		DefaultN:        2000,
		DefaultScenario: "flap-storm",
		Flags:           []string{"scenario", "dests", "readers", "load-for"},
		Run:             runServeLoad,
	})
}

func runServeLoad(req Request) (*Result, error) {
	kind, err := scenario.ParseKind(req.Scenario)
	if err != nil {
		return nil, err
	}
	g, err := req.atlasGraph()
	if err != nil {
		return nil, err
	}
	loadFor := req.LoadFor
	if loadFor <= 0 {
		loadFor = 3 * time.Second
	}
	s, err := serve.New(serve.Config{
		Graph:    g,
		Scenario: kind,
		Dests:    req.Dests,
		Seed:     req.Seed,
		Workers:  req.Workers,
		Interval: 25 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(req.ctx())
	defer cancel()
	replayDone := make(chan struct{})
	go func() {
		defer close(replayDone)
		s.Run(ctx)
	}()

	rep, swarmErr := serve.RunSwarm(ctx, serve.SwarmOptions{
		BaseURL:  "http://" + addr,
		Readers:  req.Readers,
		Duration: loadFor,
		Seed:     req.Seed,
	})
	cancel()
	<-replayDone
	shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := s.Shutdown(shutdownCtx); err != nil {
		return nil, err
	}
	if swarmErr != nil {
		return nil, swarmErr
	}

	return req.envelope("live", atlasInfo(g), rep), nil
}
