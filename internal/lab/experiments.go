package lab

import (
	"fmt"
	"io"

	"stamp/internal/bgp"
	"stamp/internal/disjoint"
	"stamp/internal/emu"
	"stamp/internal/experiments"
	"stamp/internal/metrics"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/traffic"
)

// The registry: every harness of the paper's evaluation (plus the
// beyond-paper sweep, loss, and live-emulation workloads) as one entry
// each. A new workload is a new Register call — not a new Opts struct, a
// new CLI, and another copy of the runner plumbing.
func init() {
	Register(Experiment{
		Name: "transient", Desc: "transient routing problems per protocol under a failure scenario (Figures 2–3 harness)",
		DefaultScenario: "single-link",
		Run:             func(req Request) (*Result, error) { return runTransient(req, req.Experiment, "") },
	})
	for _, p := range []struct{ name, scenario, desc string }{
		{"figure2", "single-link", "Figure 2: transient problems under a single link failure"},
		{"figure3a", "two-links-apart", "Figure 3(a): transient problems under two distant link failures"},
		{"figure3b", "two-links-shared", "Figure 3(b): transient problems under two link failures sharing an AS"},
		{"node-failure", "node-failure", "transient problems when an entire provider AS fails"},
	} {
		p := p
		Register(Experiment{
			Name: p.name, Desc: p.desc, DefaultScenario: p.scenario,
			Run: func(req Request) (*Result, error) { return runTransient(req, p.name, p.scenario) },
		})
	}
	Register(Experiment{
		Name: "sweep", Desc: "topology-seed × scenario transient grid on one shared worker pool",
		Run: runSweep,
	})
	Register(Experiment{
		Name: "figure1", Desc: "Figure 1: CDF of path disjointness Φ (random blue-provider selection)",
		Run: func(req Request) (*Result, error) { return runFigure1(req, false) },
	})
	Register(Experiment{
		Name: "figure1-intelligent", Desc: "Figure 1: CDF of Φ with intelligent blue-provider selection",
		Run: func(req Request) (*Result, error) { return runFigure1(req, true) },
	})
	Register(Experiment{
		Name: "partial", Desc: "§6.3 partial deployment: STAMP at tier-1 ASes only",
		Run: runPartial,
	})
	Register(Experiment{
		Name: "overhead", Desc: "§6.3 message overhead: STAMP vs BGP update counts",
		Run: runOverhead,
	})
	Register(Experiment{
		Name: "convergence", Desc: "§6.3 convergence delay: STAMP vs BGP after a link failure",
		Run: runConvergence,
	})
	Register(Experiment{
		Name: "ablation/lock", Desc: "blue-route coverage with the Lock mechanism on vs off",
		Run: runLockAblation,
	})
	Register(Experiment{
		Name: "ablation/mrai", Desc: "BGP convergence and message cost with the MRAI timer on vs off",
		Run: runMRAIAblation,
	})
	Register(Experiment{
		Name: "loss", Desc: "time-resolved packet loss curves (sim), or live sim-vs-emu deliverability parity (emu)",
		Backends:        []string{"sim", "emu"},
		DefaultN:        400,
		DefaultScenario: "link-failure",
		Run:             runLoss,
	})
	Register(Experiment{
		Name: "emu-converge", Desc: "scripted convergence on a live STAMP fleet, differentially validated against the simulator",
		Backends:        []string{"emu", "sim"},
		DefaultN:        200,
		DefaultScenario: "link-failure",
		Run:             runEmuConverge,
	})
}

// runTransient is the shared body of transient and its figure presets;
// fixedScenario pins the preset's kind (empty = honor req.Scenario).
func runTransient(req Request, name, fixedScenario string) (*Result, error) {
	sc := req.Scenario
	if fixedScenario != "" {
		sc = fixedScenario
	}
	kind, err := scenario.ParseKind(sc)
	if err != nil {
		return nil, err
	}
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	protos, err := req.protocols()
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunTransient(experiments.TransientOpts{
		G: g, Trials: req.Trials, Seed: req.Seed, Scenario: kind,
		Protocols: protos, Workers: req.Workers, Progress: req.Progress,
		Context: req.ctx(),
	})
	if err != nil {
		return nil, err
	}
	env := req.envelope(name, "sim", g, res)
	env.Scenario = sc
	return env, nil
}

func runSweep(req Request) (*Result, error) {
	if req.Topo.Path != "" {
		// Silently generating synthetic graphs while the operator believes
		// their CAIDA file was measured would publish wrong numbers.
		return nil, fmt.Errorf("the sweep generates its own topologies from -n and -topo-seeds; -topo is not supported")
	}
	var kinds []experiments.Scenario
	if req.Scenario != "" {
		k, err := scenario.ParseKind(req.Scenario)
		if err != nil {
			return nil, err
		}
		kinds = []experiments.Scenario{k}
	}
	protos, err := req.protocols()
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunSweep(experiments.SweepOpts{
		N: req.Topo.N, TopoSeeds: req.TopoSeeds, Scenarios: kinds,
		Trials: req.Trials, Seed: req.Seed, Protocols: protos,
		Workers: req.Workers, Progress: req.Progress, Context: req.ctx(),
	})
	if err != nil {
		return nil, err
	}
	// The sweep builds its own grid of topologies; the envelope describes
	// the grid cell size rather than one loaded graph.
	return &Result{
		SchemaVersion: SchemaVersion,
		Experiment:    req.Experiment,
		Backend:       "sim",
		Scenario:      req.Scenario,
		Trials:        req.Trials,
		Seed:          req.Seed,
		Topology:      TopoInfo{ASes: res.N},
		Data:          res,
	}, nil
}

func runFigure1(req Request, intelligent bool) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunFigure1With(g, disjoint.DefaultPhiOpts(), intelligent,
		runner.Options{Workers: req.Workers, Progress: req.Progress, Context: req.ctx()})
	if err != nil {
		return nil, err
	}
	env := req.envelope(req.Experiment, "sim", g, res)
	env.Trials = 0 // Φ is estimated per anchor, not per trial
	return env, nil
}

func runPartial(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	env := req.envelope(req.Experiment, "sim", g, experiments.RunPartialDeployment(g))
	env.Trials = 0 // structural analysis; the trials knob does not apply
	return env, nil
}

// bgpVsStamp runs the single-link transient workload for BGP and STAMP
// only — the §6.3 comparisons both derive from it.
func bgpVsStamp(req Request) (*experiments.TransientResult, *topology.Graph, error) {
	g, err := req.graph()
	if err != nil {
		return nil, nil, err
	}
	res, err := experiments.RunTransient(experiments.TransientOpts{
		G: g, Trials: req.Trials, Seed: req.Seed, Scenario: experiments.ScenarioSingleLink,
		Protocols: []experiments.Protocol{experiments.ProtoBGP, experiments.ProtoSTAMP},
		Workers:   req.Workers, Progress: req.Progress, Context: req.ctx(),
	})
	return res, g, err
}

func runOverhead(req Request) (*Result, error) {
	res, g, err := bgpVsStamp(req)
	if err != nil {
		return nil, err
	}
	o, err := res.Overhead()
	if err != nil {
		return nil, err
	}
	return req.envelope(req.Experiment, "sim", g, o), nil
}

func runConvergence(req Request) (*Result, error) {
	res, g, err := bgpVsStamp(req)
	if err != nil {
		return nil, err
	}
	c, err := res.Convergence()
	if err != nil {
		return nil, err
	}
	return req.envelope(req.Experiment, "sim", g, c), nil
}

func runLockAblation(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	dest, ok := firstMultihomed(g)
	if !ok {
		return nil, fmt.Errorf("topology has no multi-homed AS")
	}
	res, err := experiments.RunLockAblation(g, dest, req.Seed,
		runner.Options{Workers: req.Workers, Progress: req.Progress, Context: req.ctx()})
	if err != nil {
		return nil, err
	}
	env := req.envelope(req.Experiment, "sim", g, res)
	env.Trials = 0 // two fixed arms; the trials knob does not apply
	return env, nil
}

func runMRAIAblation(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunMRAIAblation(g, req.Trials, req.Seed,
		runner.Options{Workers: req.Workers, Progress: req.Progress, Context: req.ctx()})
	if err != nil {
		return nil, err
	}
	return req.envelope(req.Experiment, "sim", g, res), nil
}

func firstMultihomed(g *topology.Graph) (topology.ASN, bool) {
	for a := 0; a < g.Len(); a++ {
		if g.IsMultihomed(topology.ASN(a)) {
			return topology.ASN(a), true
		}
	}
	return 0, false
}

// LossParity is the loss experiment's emu-backend payload: the same
// flows driven through the live fleet and the deterministic sim
// reference, with the converged per-source deliverability diffed.
type LossParity struct {
	Transport   string               `json:"transport"`
	Dest        topology.ASN         `json:"dest"`
	Sim         *traffic.Curve       `json:"sim"`
	Live        *traffic.Curve       `json:"live"`
	Divergences []traffic.Divergence `json:"divergences"`
}

// Print renders the parity comparison.
func (p *LossParity) Print(w io.Writer) {
	fmt.Fprintf(w, "live flows over %s, scenario at destination AS%d\n", p.Transport, p.Dest)
	row := func(label string, c *traffic.Curve) {
		fmt.Fprintf(w, "  %-4s lost %6d packet-ticks (%d transient), %3d sources ever affected\n",
			label, c.LostPacketTicks, c.TransientLostPacketTicks, c.EverAffected)
	}
	row("sim", p.Sim)
	row("live", p.Live)
	if len(p.Divergences) == 0 {
		fmt.Fprintln(w, "transient-deliverability parity: live data plane == sim data plane (0 divergences)")
		return
	}
	fmt.Fprintf(w, "transient-deliverability parity FAILED: %d divergences\n", len(p.Divergences))
	for _, d := range p.Divergences {
		fmt.Fprintf(w, "  %v\n", d)
	}
}

// runLoss dispatches the loss experiment across the backend switch:
// sharded virtual-time loss curves on sim, a live parity run on emu.
// Both paths execute every curve through the shared Backend interface.
func runLoss(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	if req.Backend == "sim" {
		protos, err := req.protocols()
		if err != nil {
			return nil, err
		}
		be := SimBackend{}
		res, err := experiments.RunLossCurves(experiments.LossOpts{
			G: g, Trials: req.Trials, Seed: req.Seed, Scenario: req.Scenario,
			Protocols: protos, Flows: req.Flows, Tick: req.Tick, Ticks: req.Ticks,
			Workers: req.Workers, Progress: req.Progress, Context: req.ctx(),
			Curve: func(o traffic.SimOpts) (*traffic.Curve, error) {
				return be.Curve(o.Context, CurveSpec{
					G: o.G, Script: o.Script, Proto: o.Proto, Params: o.Params,
					Flows: o.Flows, Tick: o.Tick, Ticks: o.Ticks, Seed: o.Seed,
					BluePick: o.BluePick,
				})
			},
		})
		if err != nil {
			return nil, err
		}
		return req.envelope(req.Experiment, "sim", g, res), nil
	}

	// Emu: one live instance of the scenario, differentially validated
	// against the sim reference on the identical script — sampling
	// layout shared so the curves line up tick for tick. The live fleet
	// is a STAMP deployment; an explicit protocol request is honored by
	// passing it through to the backend, whose guard rejects non-STAMP
	// rather than silently measuring the wrong protocol.
	proto := traffic.STAMP
	if len(req.Protocols) > 0 {
		if len(req.Protocols) > 1 {
			return nil, fmt.Errorf("the emu backend measures one protocol per run (got %v); use -backend sim for the full set", req.Protocols)
		}
		p, err := ParseProtocol(req.Protocols[0])
		if err != nil {
			return nil, err
		}
		proto = p
	}
	script, err := scenario.Named(req.Scenario, g, req.Seed)
	if err != nil {
		return nil, err
	}
	spec := CurveSpec{
		G: g, Script: script, Proto: proto,
		Flows: req.Flows, Tick: req.Tick, Ticks: req.Ticks, Seed: req.Seed,
		Transport: req.Transport, Workers: req.Workers,
	}
	if spec.Tick <= 0 {
		spec.Tick = traffic.DefaultEmuTick
	}
	if spec.Ticks <= 0 {
		spec.Ticks = traffic.DefaultEmuTicks
	}
	live, err := EmuBackend{}.Curve(req.ctx(), spec)
	if err != nil {
		return nil, fmt.Errorf("emu backend: %w", err)
	}
	spec.Reference = true
	ref, err := SimBackend{}.Curve(req.ctx(), spec)
	if err != nil {
		return nil, fmt.Errorf("sim reference: %w", err)
	}
	divs := ref.DiffFinal(live)
	env := req.envelope(req.Experiment, "emu", g, &LossParity{
		Transport:   req.Transport,
		Dest:        script.Dest,
		Sim:         ref,
		Live:        live,
		Divergences: append([]traffic.Divergence{}, divs...),
	})
	env.Trials = 0 // one live instance; the trials knob does not apply
	env.Divergences = len(divs)
	return env, nil
}

// CDFSummary condenses a per-AS wall-clock convergence CDF.
type CDFSummary struct {
	ASesChanged int     `json:"ases_changed"`
	MeanMs      float64 `json:"mean_ms"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	MaxMs       float64 `json:"max_ms"`
}

func summarizeCDF(c *metrics.CDF) *CDFSummary {
	if c == nil || c.Len() == 0 {
		return nil
	}
	return &CDFSummary{
		ASesChanged: c.Len(),
		MeanMs:      1e3 * c.Mean(),
		P50Ms:       1e3 * c.Quantile(0.5),
		P90Ms:       1e3 * c.Quantile(0.9),
		MaxMs:       1e3 * c.Quantile(1),
	}
}

// EmuConverge is the emu-converge payload: converged routing state plus
// — on the emu backend — the live fleet's wall-clock measurements and
// the differential diff against the simulator.
type EmuConverge struct {
	Transport   string           `json:"transport,omitempty"`
	Dest        topology.ASN     `json:"dest"`
	Stats       emu.Stats        `json:"stats"`
	BootMs      float64          `json:"boot_ms"`
	InitialMs   float64          `json:"initial_convergence_ms"`
	ScenarioMs  float64          `json:"scenario_convergence_ms"`
	RedRoutes   int              `json:"red_routes"`
	BlueRoutes  int              `json:"blue_routes"`
	ConvCDF     *CDFSummary      `json:"scenario_convergence_cdf,omitempty"`
	DiffRan     bool             `json:"diff_ran"`
	Divergences []emu.Divergence `json:"divergences"`
}

// Print renders the convergence run.
func (r *EmuConverge) Print(w io.Writer) {
	fmt.Fprintf(w, "scenario at destination AS%d\n", r.Dest)
	if r.Stats.Sessions > 0 {
		fmt.Fprintf(w, "  %d live sessions over %s\n", r.Stats.Sessions, r.Transport)
		fmt.Fprintf(w, "  boot (wire + establish all)  %8.1f ms\n", r.BootMs)
		fmt.Fprintf(w, "  initial convergence          %8.1f ms\n", r.InitialMs)
		fmt.Fprintf(w, "  scenario convergence         %8.1f ms\n", r.ScenarioMs)
		fmt.Fprintf(w, "  updates sent                 %8d   (dropped in severed transit: %d)\n",
			r.Stats.Updates, r.Stats.Dropped)
	}
	fmt.Fprintf(w, "  final routes                 %8d red, %d blue\n", r.RedRoutes, r.BlueRoutes)
	if r.ConvCDF != nil {
		fmt.Fprintf(w, "  per-AS convergence           mean %.1f ms, p50 %.1f ms, p90 %.1f ms, max %.1f ms (%d ASes changed)\n",
			r.ConvCDF.MeanMs, r.ConvCDF.P50Ms, r.ConvCDF.P90Ms, r.ConvCDF.MaxMs, r.ConvCDF.ASesChanged)
	}
	switch {
	case !r.DiffRan:
		// Only a live run can skip validation; the sim backend IS the
		// reference and has nothing to diff against.
		if r.Stats.Sessions > 0 {
			fmt.Fprintln(w, "differential validation skipped (-diff=false)")
		}
	case len(r.Divergences) == 0:
		fmt.Fprintln(w, "differential validation: live tables == simulator tables (0 divergences)")
	default:
		fmt.Fprintf(w, "differential validation FAILED: %d divergences\n", len(r.Divergences))
		for _, d := range r.Divergences {
			fmt.Fprintf(w, "  %v\n", d)
		}
	}
}

// runEmuConverge converges the scenario on the requested backend; on
// emu the live tables are differentially validated against the sim
// reference run on the identical script.
func runEmuConverge(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	script, err := scenario.Named(req.Scenario, g, req.Seed)
	if err != nil {
		return nil, err
	}
	be, err := BackendByName(req.Backend)
	if err != nil {
		return nil, err
	}
	spec := ConvergeSpec{
		G: g, Script: script, Seed: req.Seed, Transport: req.Transport, Workers: req.Workers,
		QuietWindow: req.QuietWindow, ConvergeTimeout: req.ConvergeTimeout,
	}
	conv, err := be.Converge(req.ctx(), spec)
	if err != nil {
		return nil, err
	}
	payload := &EmuConverge{
		Dest:        script.Dest,
		RedRoutes:   conv.Tables.Routes(bgp.ColorRed),
		BlueRoutes:  conv.Tables.Routes(bgp.ColorBlue),
		Divergences: []emu.Divergence{},
	}
	if conv.Live != nil {
		payload.Transport = req.Transport
		payload.Stats = conv.Live.Stats
		payload.BootMs = float64(conv.Live.Boot) / 1e6
		payload.InitialMs = float64(conv.Live.InitialConvergence) / 1e6
		payload.ScenarioMs = float64(conv.Live.ScenarioConvergence) / 1e6
		payload.ConvCDF = summarizeCDF(conv.Live.ConvCDF)

		if !req.NoDiff {
			ref, err := SimBackend{}.Converge(req.ctx(), spec)
			if err != nil {
				return nil, fmt.Errorf("sim reference: %w", err)
			}
			payload.DiffRan = true
			payload.Divergences = append(payload.Divergences, ref.Tables.Diff(conv.Tables)...)
		}
	}
	env := req.envelope(req.Experiment, req.Backend, g, payload)
	env.Trials = 0 // one scripted instance; the trials knob does not apply
	env.Divergences = len(payload.Divergences)
	return env, nil
}
