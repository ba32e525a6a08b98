package cli

import (
	"flag"
	"fmt"
	"strings"

	"stamp/internal/lab"
	"stamp/internal/scenario"
)

// header is the flag surface every experiment shares; an entry's
// lab.Experiment.Flags name the rest it reads.
var header = []string{"n", "seed", "topo", "workers", "json", "progress"}

// requestFlags holds the flag values one experiment-running subcommand
// parses, bound to the lab.Request they fill.
type requestFlags struct {
	req                  lab.Request
	protocols, topoSeeds string
	diff, json, progress bool
}

// newRequestFlags registers on fs the request flags named in want (nil:
// every one the CLI knows).
func newRequestFlags(fs *flag.FlagSet, want map[string]bool) *requestFlags {
	f := &requestFlags{}
	r := &f.req
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.IntVar(&r.Topo.N, "n", 0, "topology size (ASes) when generating (0 = experiment default)")
	all.Int64Var(&r.Seed, "seed", 1, "master random seed")
	all.StringVar(&r.Topo.Path, "topo", "", "CAIDA AS-rel file to load instead of generating")
	all.IntVar(&r.Workers, "workers", 0, "worker pool size (0 = one per CPU)")
	all.BoolVar(&f.json, "json", false, "emit the result envelope as JSON on stdout")
	all.BoolVar(&f.progress, "progress", false, "report shard progress on stderr")
	all.IntVar(&r.Trials, "trials", 10, "random workload instances")
	all.StringVar(&r.Scenario, "scenario", "", "failure scenario ('' = experiment default): "+scenarioNames())
	all.StringVar(&f.protocols, "protocol", "all", "protocols under test: all or csv of bgp,rbgp-norci,rbgp,stamp")
	all.StringVar(&r.Backend, "backend", "", "execution backend: sim (virtual time) or emu (live fleet); '' = experiment default")
	all.StringVar(&r.Transport, "transport", "pipe", "emu session transport: pipe (in-memory) or tcp (loopback)")
	all.IntVar(&r.Flows, "flows", 1, "flows per source AS")
	all.DurationVar(&r.Tick, "tick", 0, "traffic sampling interval (0 = backend default)")
	all.IntVar(&r.Ticks, "ticks", 0, "traffic samples per run (0 = backend default)")
	all.IntVar(&r.Dests, "dests", 0, "destination shards (0 = default)")
	all.IntVar(&r.Repeat, "repeat", 0, "script repeat cycles (0 = once; needs a restore-balanced scenario)")
	all.StringVar(&f.topoSeeds, "topo-seeds", "1,2,3", "comma-separated topology seeds")
	all.IntVar(&r.Readers, "readers", 0, "concurrent read clients (0 = default)")
	all.DurationVar(&r.LoadFor, "load-for", 0, "measurement window (0 = default)")
	all.BoolVar(&f.diff, "diff", true, "differentially validate live tables against the simulator")
	all.DurationVar(&r.QuietWindow, "quiet", 0, "quiescence window override (0 = default)")
	all.DurationVar(&r.ConvergeTimeout, "timeout", 0, "convergence timeout override (0 = default)")
	all.StringVar(&r.Why, "why", "", "report the route-provenance chain for DEST:AS (original ASNs, or 'auto') after the replay")
	all.StringVar(&r.TracePath, "trace", "", "write a Chrome trace-event JSON of the replay to this file (load at ui.perfetto.dev)")
	all.IntVar(&r.TraceSample, "trace-sample", 0, "record 1-in-N event traces (0 or 1 = every one; with -trace)")
	all.Float64Var(&r.Steer.DegradeMs, "steer-degrade-ms", 0, "steering: unhealthy when this far above baseline (0 = default)")
	all.Float64Var(&r.Steer.ComfortMs, "steer-comfort-ms", 0, "steering: comfortable within this margin of baseline (0 = default)")
	all.Float64Var(&r.Steer.AbsMaxMs, "steer-max-ms", 0, "steering: absolute unhealthy latency cap (0 = default)")
	all.IntVar(&r.Steer.Consecutive, "steer-n", 0, "steering: consecutive unhealthy ticks before a switch (0 = default)")
	all.IntVar(&r.Steer.CooldownTicks, "steer-cooldown", 0, "steering: ticks between switches per source (0 = default, negative = none)")
	all.VisitAll(func(fl *flag.Flag) {
		if want == nil || want[fl.Name] {
			fs.Var(fl.Value, fl.Name, fl.Usage)
		}
	})
	return f
}

func scenarioNames() string {
	return strings.Join(scenario.Names(), ", ")
}

// request materializes the lab request for one experiment.
func (f *requestFlags) request(e env, experiment string) (lab.Request, error) {
	seeds, err := parseSeeds(f.topoSeeds)
	if err != nil {
		return lab.Request{}, err
	}
	req := f.req
	req.Experiment = experiment
	req.Topo.Seed = req.Seed
	req.Protocols = splitCSV(f.protocols)
	req.TopoSeeds = seeds
	req.NoDiff = !f.diff
	req.Progress = e.progressFn(f.progress)
	req.Context = e.ctx
	return req, nil
}

// flagNames is the header plus every flag the entries declare.
func flagNames(entries ...string) map[string]bool {
	names := map[string]bool{}
	for _, name := range header {
		names[name] = true
	}
	for _, name := range entries {
		exp, _ := lab.Get(name)
		for _, fl := range exp.Flags {
			names[fl] = true
		}
	}
	return names
}

// runEntry runs one of the registry entries a subcommand reaches. It
// registers the header and the union of the entries' flags on fs,
// parses args, lets pick choose the entry, and refuses any set flag
// that entry does not read.
func (e env) runEntry(fs *flag.FlagSet, args []string, pick func() (string, error), entries ...string) int {
	want := flagNames(entries...)
	f := newRequestFlags(fs, want)
	if code, done := parse(fs, args); done {
		return code
	}
	name, err := pick()
	if err != nil {
		fmt.Fprintf(e.stderr, "%s: %v\n", fs.Name(), err)
		return ExitUsage
	}
	reads := flagNames(name)
	var unread []string
	fs.Visit(func(fl *flag.Flag) {
		if want[fl.Name] && !reads[fl.Name] {
			unread = append(unread, "-"+fl.Name)
		}
	})
	if len(unread) > 0 {
		fmt.Fprintf(e.stderr, "%s: %s does not read %s (stamp run %s -h lists its flags)\n",
			fs.Name(), name, strings.Join(unread, ", "), name)
		return ExitUsage
	}
	req, err := f.request(e, name)
	if err != nil {
		fmt.Fprintf(e.stderr, "%s: %v\n", fs.Name(), err)
		return ExitUsage
	}
	res, err := lab.Run(req)
	if err != nil {
		return e.fail(err)
	}
	return e.emit(res, f.json)
}

// entry is a pick that always chooses name.
func entry(name string) func() (string, error) {
	return func() (string, error) { return name, nil }
}

// cmdRun is `stamp run <experiment> [flags]`: the header plus exactly
// the flags the experiment declares.
func (e env) cmdRun(args []string) int {
	// `stamp run -h` asks for the shared header help, not an experiment.
	if len(args) > 0 {
		switch args[0] {
		case "-h", "-help", "--help":
			fs := e.flagSet("stamp run <experiment>")
			newRequestFlags(fs, flagNames())
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
	return e.runEntry(e.flagSet("stamp run "+name), rest, entry(name), name)
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
// `stamp run emu-converge`, whose default backend is emu.
func (e env) cmdLab(args []string) int {
	return e.runEntry(e.flagSet("stamp lab"), args, entry("emu-converge"), "emu-converge")
}

// cmdFlood is `stamp flood` — the packet-level workload driver, sugar
// for `stamp run loss`.
func (e env) cmdFlood(args []string) int {
	return e.runEntry(e.flagSet("stamp flood"), args, entry("loss"), "loss")
}

// cmdAtlas is `stamp atlas` — the internet-scale flat-engine run,
// sugar for `stamp run atlas-converge` (or atlas-loss with -loss,
// atlas-replay with -replay): ingest a CAIDA snapshot (or generate),
// converge every destination shard, report rounds/churn/loss.
func (e env) cmdAtlas(args []string) int {
	fs := e.flagSet("stamp atlas")
	loss := fs.Bool("loss", false, "reduce to the BGP-vs-STAMP transient-loss comparison (atlas-loss)")
	replay := fs.Bool("replay", false, "stream the script through the incremental engine, reporting per-event cost (atlas-replay)")
	return e.runEntry(fs, args, func() (string, error) {
		switch {
		case *loss && *replay:
			return "", fmt.Errorf("-loss and -replay are mutually exclusive")
		case *loss:
			return "atlas-loss", nil
		case *replay:
			return "atlas-replay", nil
		}
		return "atlas-converge", nil
	}, "atlas-converge", "atlas-loss", "atlas-replay")
}

// cmdSteer is `stamp steer` — the four-arm latency steering grid,
// sugar for `stamp run steer-latency` (or steer-loss with -loss).
func (e env) cmdSteer(args []string) int {
	fs := e.flagSet("stamp steer")
	loss := fs.Bool("loss", false, "measure under gray failures instead of latency brownouts (steer-loss)")
	return e.runEntry(fs, args, func() (string, error) {
		if *loss {
			return "steer-loss", nil
		}
		return "steer-latency", nil
	}, "steer-latency", "steer-loss")
}
