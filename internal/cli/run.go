package cli

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"stamp/internal/lab"
	"stamp/internal/scenario"
	"stamp/internal/steer"
)

// requestFlags is the one flag surface every experiment-running
// subcommand shares; each subcommand registers it on its own flag set
// (so `stamp lab` and `stamp flood` keep their familiar spellings) and
// materializes a lab.Request from it.
type requestFlags struct {
	n         *int
	seed      *int64
	topo      *string
	trials    *int
	scenario  *string
	protocols *string
	backend   *string
	transport *string
	flows     *int
	tick      *time.Duration
	ticks     *int
	workers   *int
	dests     *int
	repeat    *int
	topoSeeds *string
	readers   *int
	loadFor   *time.Duration
	jsonOut   *bool
	progress  *bool

	// Steering-policy tuning (steer experiments; 0 = policy default).
	steerDegrade  *float64
	steerComfort  *float64
	steerMax      *float64
	steerN        *int
	steerCooldown *int
}

func addRequestFlags(fs *flag.FlagSet) *requestFlags {
	return &requestFlags{
		n:         fs.Int("n", 0, "topology size (ASes) when generating (0 = experiment default)"),
		seed:      fs.Int64("seed", 1, "master random seed"),
		topo:      fs.String("topo", "", "CAIDA AS-rel file to load instead of generating"),
		trials:    fs.Int("trials", 10, "random workload instances"),
		scenario:  fs.String("scenario", "", "failure scenario ('' = experiment default): "+scenarioNames()),
		protocols: fs.String("protocol", "all", "protocols under test: all or csv of bgp,rbgp-norci,rbgp,stamp"),
		backend:   fs.String("backend", "", "execution backend: sim (virtual time) or emu (live fleet); '' = experiment default"),
		transport: fs.String("transport", "pipe", "emu session transport: pipe (in-memory) or tcp (loopback)"),
		flows:     fs.Int("flows", 1, "flows per source AS (traffic experiments)"),
		tick:      fs.Duration("tick", 0, "traffic sampling interval (0 = backend default)"),
		ticks:     fs.Int("ticks", 0, "traffic samples per run (0 = backend default)"),
		workers:   fs.Int("workers", 0, "worker pool size (0 = one per CPU)"),
		dests:     fs.Int("dests", 0, "destination shards for atlas experiments (0 = default)"),
		repeat:    fs.Int("repeat", 0, "script repeat cycles for stream experiments like atlas-replay (0 = once; needs a restore-balanced scenario)"),
		topoSeeds: fs.String("topo-seeds", "1,2,3", "comma-separated topology seeds (sweep experiment)"),
		readers:   fs.Int("readers", 0, "concurrent read clients for load experiments like serve-load (0 = default)"),
		loadFor:   fs.Duration("load-for", 0, "measurement window for load experiments (0 = default)"),
		jsonOut:   fs.Bool("json", false, "emit the result envelope as JSON on stdout"),
		progress:  fs.Bool("progress", false, "report shard progress on stderr"),

		steerDegrade:  fs.Float64("steer-degrade-ms", 0, "steering: unhealthy when this far above baseline (0 = default)"),
		steerComfort:  fs.Float64("steer-comfort-ms", 0, "steering: comfortable within this margin of baseline (0 = default)"),
		steerMax:      fs.Float64("steer-max-ms", 0, "steering: absolute unhealthy latency cap (0 = default)"),
		steerN:        fs.Int("steer-n", 0, "steering: consecutive unhealthy ticks before a switch (0 = default)"),
		steerCooldown: fs.Int("steer-cooldown", 0, "steering: ticks between switches per source (0 = default, negative = none)"),
	}
}

func scenarioNames() string {
	return strings.Join(scenario.Names(), ", ")
}

// request materializes the lab request for one experiment.
func (f *requestFlags) request(e env, experiment string) (lab.Request, error) {
	seeds, err := parseSeeds(*f.topoSeeds)
	if err != nil {
		return lab.Request{}, err
	}
	return lab.Request{
		Experiment: experiment,
		Topo:       lab.TopoSpec{N: *f.n, Seed: *f.seed, Path: *f.topo},
		Scenario:   *f.scenario,
		Trials:     *f.trials,
		Seed:       *f.seed,
		Protocols:  splitCSV(*f.protocols),
		Backend:    *f.backend,
		Transport:  *f.transport,
		Flows:      *f.flows,
		Tick:       *f.tick,
		Ticks:      *f.ticks,
		Workers:    *f.workers,
		Dests:      *f.dests,
		Repeat:     *f.repeat,
		TopoSeeds:  seeds,
		Readers:    *f.readers,
		LoadFor:    *f.loadFor,
		Steer: steer.Config{
			DegradeMs:     *f.steerDegrade,
			ComfortMs:     *f.steerComfort,
			AbsMaxMs:      *f.steerMax,
			Consecutive:   *f.steerN,
			CooldownTicks: *f.steerCooldown,
		},
		Progress: e.progressFn(*f.progress),
		Context:  e.ctx,
	}, nil
}

// cmdRun is `stamp run <experiment> [flags]`.
func (e env) cmdRun(args []string) int {
	// `stamp run -h` asks for the shared flag help, not an experiment.
	if len(args) > 0 {
		switch args[0] {
		case "-h", "-help", "--help":
			fs := e.flagSet("stamp run <experiment>")
			addRequestFlags(fs)
			code, _ := parse(fs, args[:1])
			return code
		}
	}
	if len(args) == 0 || len(args[0]) > 0 && args[0][0] == '-' {
		fmt.Fprintln(e.stderr, "stamp run: missing experiment name (stamp list prints the registry)")
		return ExitUsage
	}
	name, rest := args[0], args[1:]
	if _, ok := lab.Get(name); !ok {
		fmt.Fprintf(e.stderr, "stamp run: unknown experiment %q (stamp list prints the registry)\n", name)
		return ExitUsage
	}
	fs := e.flagSet("stamp run " + name)
	f := addRequestFlags(fs)
	if code, done := parse(fs, rest); done {
		return code
	}
	req, err := f.request(e, name)
	if err != nil {
		fmt.Fprintln(e.stderr, "stamp run:", err)
		return ExitUsage
	}
	res, err := lab.Run(req)
	if err != nil {
		return e.fail(err)
	}
	return e.emit(res, *f.jsonOut)
}

// cmdList is `stamp list`.
func (e env) cmdList(args []string) int {
	fs := e.flagSet("stamp list")
	if code, done := parse(fs, args); done {
		return code
	}
	fmt.Fprintln(e.stdout, "registered experiments (stamp run <name>):")
	for _, name := range lab.Names() {
		exp, _ := lab.Get(name)
		fmt.Fprintf(e.stdout, "  %-20s [%s] %s\n", name, strings.Join(exp.BackendNames(), "|"), exp.Desc)
	}
	return ExitOK
}

// cmdLab is `stamp lab` — the live-emulation convergence run, sugar for
// `stamp run emu-converge -backend emu` with the stamplab flag surface
// (including its -diff/-quiet/-timeout emu tuning knobs).
func (e env) cmdLab(args []string) int {
	fs := e.flagSet("stamp lab")
	f := addRequestFlags(fs)
	var (
		diff    = fs.Bool("diff", true, "differentially validate live tables against the simulator")
		quiet   = fs.Duration("quiet", 0, "quiescence window override (0 = default)")
		timeout = fs.Duration("timeout", 0, "convergence timeout override (0 = default)")
	)
	if code, done := parse(fs, args); done {
		return code
	}
	req, err := f.request(e, "emu-converge")
	if err != nil {
		fmt.Fprintln(e.stderr, "stamp lab:", err)
		return ExitUsage
	}
	req.NoDiff = !*diff
	req.QuietWindow = *quiet
	req.ConvergeTimeout = *timeout
	if req.Backend == "" {
		req.Backend = "emu"
	}
	res, err := lab.Run(req)
	if err != nil {
		return e.fail(err)
	}
	return e.emit(res, *f.jsonOut)
}

// cmdFlood is `stamp flood` — the packet-level workload driver, sugar
// for `stamp run loss` with the stampflood flag surface.
func (e env) cmdFlood(args []string) int {
	fs := e.flagSet("stamp flood")
	f := addRequestFlags(fs)
	if code, done := parse(fs, args); done {
		return code
	}
	req, err := f.request(e, "loss")
	if err != nil {
		fmt.Fprintln(e.stderr, "stamp flood:", err)
		return ExitUsage
	}
	res, err := lab.Run(req)
	if err != nil {
		return e.fail(err)
	}
	return e.emit(res, *f.jsonOut)
}

// cmdAtlas is `stamp atlas` — the internet-scale flat-engine run,
// sugar for `stamp run atlas-converge` (or atlas-loss with -loss,
// atlas-replay with -replay): ingest a CAIDA snapshot (or generate),
// converge every destination shard, report rounds/churn/loss.
func (e env) cmdAtlas(args []string) int {
	fs := e.flagSet("stamp atlas")
	f := addRequestFlags(fs)
	loss := fs.Bool("loss", false, "reduce to the BGP-vs-STAMP transient-loss comparison (atlas-loss)")
	replay := fs.Bool("replay", false, "stream the script through the incremental engine, reporting per-event cost (atlas-replay)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the replay to this file (requires -replay; load at ui.perfetto.dev)")
	traceN := fs.Int("trace-sample", 0, "record 1-in-N event traces (0 or 1 = every one; with -trace)")
	why := fs.String("why", "", "report the route-provenance chain for DEST:AS (original ASNs, or 'auto') after the replay (requires -replay)")
	if code, done := parse(fs, args); done {
		return code
	}
	if *loss && *replay {
		fmt.Fprintln(e.stderr, "stamp atlas: -loss and -replay are mutually exclusive")
		return ExitUsage
	}
	if *tracePath != "" && !*replay {
		fmt.Fprintln(e.stderr, "stamp atlas: -trace requires -replay (only the incremental stream is traced)")
		return ExitUsage
	}
	if *why != "" && !*replay {
		fmt.Fprintln(e.stderr, "stamp atlas: -why requires -replay (provenance is journaled on the incremental stream)")
		return ExitUsage
	}
	if *f.repeat != 0 && !*replay {
		fmt.Fprintln(e.stderr, "stamp atlas: -repeat requires -replay (only the incremental stream cycles its script)")
		return ExitUsage
	}
	if *traceN < 0 {
		fmt.Fprintln(e.stderr, "stamp atlas: -trace-sample must be 0 or positive (and requires -trace)")
		return ExitUsage
	}
	if *traceN != 0 && *tracePath == "" {
		fmt.Fprintln(e.stderr, "stamp atlas: -trace-sample requires -trace")
		return ExitUsage
	}
	name := "atlas-converge"
	if *loss {
		name = "atlas-loss"
	}
	if *replay {
		name = "atlas-replay"
	}
	req, err := f.request(e, name)
	if err != nil {
		fmt.Fprintln(e.stderr, "stamp atlas:", err)
		return ExitUsage
	}
	req.TracePath = *tracePath
	req.TraceSample = *traceN
	req.Why = *why
	res, err := lab.Run(req)
	if err != nil {
		return e.fail(err)
	}
	return e.emit(res, *f.jsonOut)
}

// cmdSteer is `stamp steer` — the four-arm latency steering grid,
// sugar for `stamp run steer-latency` (or steer-loss with -loss). The
// policy knobs (-steer-n, -steer-cooldown, ...) live on the shared
// request surface so `stamp run steer-latency` accepts them too.
func (e env) cmdSteer(args []string) int {
	fs := e.flagSet("stamp steer")
	f := addRequestFlags(fs)
	loss := fs.Bool("loss", false, "measure under gray failures instead of latency brownouts (steer-loss)")
	if code, done := parse(fs, args); done {
		return code
	}
	name := "steer-latency"
	if *loss {
		name = "steer-loss"
	}
	req, err := f.request(e, name)
	if err != nil {
		fmt.Fprintln(e.stderr, "stamp steer:", err)
		return ExitUsage
	}
	res, err := lab.Run(req)
	if err != nil {
		return e.fail(err)
	}
	return e.emit(res, *f.jsonOut)
}
