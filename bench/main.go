// Command bench is the repository's benchmark: five workloads, six
// end-to-end metrics measured with tracing off, and a per-layer budget
// measured from outside the program in a separate traced run. README.md
// in this directory says what each workload and metric is for.
//
//	bash bench/run.sh -seed 1                      # every workload, untraced
//	bash bench/run.sh -workload serve-write-50k -seed 1 -trace 1
//	bash bench/run.sh -baseline bench/baseline.json -runs 5
//	bash bench/run.sh -compare A.json B.json
//
// Each workload run ends with one line of JSON: correct, attempted,
// failed, metrics. The exit code is nonzero if any check failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// sized is a workload at a given size: its untraced and its traced run.
type sized interface {
	run(seed int64) (*result, error)
	trace(seed int64, outDir string) (*result, error)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// size fixes the operation counts as functions of -seconds, calibrated
	// so the timed phase of the untraced run lasts about that long on the
	// 2-core box the baseline was taken on; fixed counts make the program's
	// own counters repeat exactly for a seed. smoke picks tiny sizes.
	size func(seconds int, smoke bool) sized
}

var workloads = []workload{
	{
		name: "serve-write-50k",
		why:  "50k ASes, 8 shards, flap-storm events applied closed-loop through Server.ApplyEvent, no readers: the O(N) work per event (engine sweep, 3-plane copy, recount, fan-out) is nearly all of the cost",
		size: func(seconds int, smoke bool) sized {
			sp := serveSpec{name: "serve-write-50k", n: 50000, dests: 8, events: 120 * seconds, setup: fullSetup(2), probes: 256}
			if smoke {
				sp.n, sp.dests, sp.events, sp.probes, sp.setup = 1500, 4, 60, 32, setupPlan{reps: 2}
			}
			return sp
		},
	},
	{
		name: "serve-mixed-10k",
		why:  "10k ASes, open-loop writer at 50 events/s beside 2 closed-loop HTTP readers on loopback (80% point, 10% summary, 7% why, 3% metrics): the read path does most of the work while writes run beside it",
		size: func(seconds int, smoke bool) sized {
			sp := serveSpec{name: "serve-mixed-10k", n: 10000, dests: 8, events: 50 * seconds, interval: 20 * time.Millisecond,
				readers: 2, setup: fullSetup(3), probes: 256}
			if smoke {
				sp.n, sp.dests, sp.events, sp.interval, sp.probes, sp.setup = 1500, 4, 40, 5*time.Millisecond, 32, setupPlan{reps: 2}
			}
			return sp
		},
	},
	{
		name: "atlas-converge-50k",
		why:  "50k ASes, atlas.Run flap-storm from scratch at hundreds of destinations: engine rounds and the runner pool do all the work, the serve plane none, so a publish-side change must not move it",
		size: func(seconds int, smoke bool) sized {
			sp := atlasSpec{name: "atlas-converge-50k", n: 50000, dests: 32 * seconds, setup: fullSetup(2)}
			if smoke {
				sp.n, sp.dests, sp.setup = 1500, 48, setupPlan{reps: 2}
			}
			return sp
		},
	},
	{
		name: "atlas-replay-50k",
		why:  "50k ASes, atlas.Replay of the cycled storm at 8 destinations: the engine's frontier repair with no publish, HTTP, JSON or event log, so an engine change moves it together with serve-write-50k",
		size: func(seconds int, smoke bool) sized {
			sp := atlasSpec{name: "atlas-replay-50k", n: 50000, dests: 8, repeat: max(seconds*3/5, 1), setup: fullSetup(2)}
			if smoke {
				sp.n, sp.dests, sp.repeat, sp.setup = 1500, 8, 3, setupPlan{reps: 2}
			}
			return sp
		},
	},
	{
		name: "sim-loss-1k",
		why:  "1k ASes, two-links-shared (Figure 3b), trials x {BGP, R-BGP-noRCI, R-BGP, STAMP} loss curves through lab.Run on the sim backend: the paper-reproduction path no atlas or serve change should move",
		size: func(seconds int, smoke bool) sized {
			sp := lossSpec{name: "sim-loss-1k", n: 1000, trials: max(seconds/2, 1), ticks: 2400, setup: fullSetup(5)}
			if smoke {
				sp.n, sp.trials, sp.ticks, sp.setup = 300, 3, 600, setupPlan{reps: 2}
			}
			return sp
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runSeconds is the run length BENCHMARK.json fixes and -seconds defaults
// to.
const runSeconds = 10

// options are the run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	outDir   string
	smoke    bool
}

// runOne runs one workload in this process and prints its report.
func runOne(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	var r *result
	var err error
	if sz := w.size(o.seconds, o.smoke); o.trace == 1 {
		r, err = sz.trace(o.seed, o.outDir)
	} else {
		r, err = sz.run(o.seed)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, r.print(os.Stdout)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of randomness: every input derives from it")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "nominal length of the timed phase; operation counts are fixed functions of it")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace-<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, every check on (what bench_test.go runs)")
	compare := flag.Bool("compare", false, "compare two baseline files: -compare BASE.json CHANGE.json")
	baseline := flag.String("baseline", "", "run every workload -runs times untraced and write medians and quartiles to this file")
	runs := flag.Int("runs", 5, "runs per workload for -baseline")
	flag.Parse()

	if err := dispatch(o, *compare, *baseline, *runs, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errFailed = fmt.Errorf("a check failed or a metric regressed")

func dispatch(o options, compare bool, baseline string, runs int, args []string) error {
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files: BASE.json CHANGE.json")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case baseline != "":
		return writeBaseline(o, baseline, runs)
	case o.workload != "":
		r, err := runOne(o)
		if err != nil {
			return err
		}
		if r.failed > 0 {
			return errFailed
		}
		return nil
	}
	// Every workload, each in a process of its own so that peak RSS and
	// heap state are that workload's alone.
	failed := false
	for _, w := range workloads {
		o.workload = w.name
		line, err := runChild(o, os.Stdout)
		if err != nil {
			return err
		}
		failed = failed || !line.Correct
	}
	if failed {
		return errFailed
	}
	return nil
}
