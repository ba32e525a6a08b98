package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/scenario"
	"stamp/internal/serve"
	"stamp/internal/topology"
)

// defaultServeN is the generated topology size `stamp serve` serves.
const defaultServeN = 10000

// cmdServe is `stamp serve`: the always-on service mode. It converges
// an atlas fixpoint over the topology, then serves concurrent reads —
// Prometheus /metrics, the /events SSE stream, snapshot-isolated
// /state reads — while scenario events arrive from the paced -replay
// loop or from POST /admin/event. With -swarm N it instead runs the
// built-in read-load harness against itself and reports the
// client-observed latency quantiles (the -slo gate for CI).
func (e env) cmdServe(args []string) int {
	fs := e.flagSet("stamp serve")
	var (
		topo     = fs.String("topo", "", "CAIDA AS-rel snapshot to serve (generates with -n when empty)")
		n        = fs.Int("n", defaultServeN, "generated topology size (ASes) when -topo is empty (0 = default)")
		seed     = fs.Int64("seed", 1, "master random seed (workload draw + destination sample)")
		scen     = fs.String("scenario", "flap-storm", "replay workload: "+scenarioNames())
		dests    = fs.Int("dests", 0, "destination shards to serve (0 = default)")
		workers  = fs.Int("workers", 0, "convergence pool size (0 = one per CPU)")
		repeat   = fs.Int("repeat", 0, "replay cycles (0 = endless; needs a restore-balanced scenario)")
		addr     = fs.String("addr", "127.0.0.1:8465", "HTTP listen address")
		rate     = fs.Float64("rate", 50, "replay pacing in events/s")
		replay   = fs.Bool("replay", false, "run the paced replay loop (otherwise events arrive only via POST /admin/event)")
		swarm    = fs.Int("swarm", 0, "run the read-load harness with this many concurrent readers, then exit")
		duration = fs.Duration("duration", 10*time.Second, "swarm load duration")
		slo      = fs.Float64("slo", 0, "read-latency budget in milliseconds: the swarm p99 gate (exit 1 on breach), and the per-read flight-recorder trigger (0 = no gate)")
		jsonOut  = fs.Bool("json", false, "emit the swarm report as JSON on stdout")
		traceDir = fs.String("trace-dir", "", "write flight-recorder trace dumps to this directory (latest also at GET /debug/flight)")
		traceN   = fs.Int("trace-sample", 0, "record 1-in-N event/read traces (0 or 1 = every one)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		provCap  = fs.Int("prov-cap", 0, "route-provenance journal entries per destination shard, recording applied events (0 = 4096; annotates GET /state/{dest}/{as}/why)")
	)
	if code, done := parse(fs, args); done {
		return code
	}
	// As in lab requests, zero means "default" and a negative count or
	// duration is a usage error; -n and -workers read <= 0 as default.
	if *n <= 0 {
		*n = defaultServeN
	}
	for _, f := range []struct {
		flag string
		v    float64
	}{
		{"dests", float64(*dests)}, {"repeat", float64(*repeat)}, {"swarm", float64(*swarm)},
		{"duration", float64(*duration)}, {"slo", *slo}, {"trace-sample", float64(*traceN)},
		{"prov-cap", float64(*provCap)},
	} {
		if f.v < 0 {
			fmt.Fprintf(e.stderr, "stamp serve: -%s must be 0 or positive\n", f.flag)
			return ExitUsage
		}
	}
	kind, err := scenario.ParseKind(*scen)
	if err != nil {
		fmt.Fprintln(e.stderr, "stamp serve:", err)
		return ExitUsage
	}
	// NaN, +Inf and rates above 1e9/s all pass a sign check but give no
	// interval, which serve.New would replace with its default pacing.
	if !(*rate > 0) || time.Duration(float64(time.Second) / *rate) <= 0 {
		fmt.Fprintln(e.stderr, "stamp serve: -rate must be a positive finite rate of at most 1e9 events/s")
		return ExitUsage
	}

	var g *atlas.Graph
	if *topo != "" {
		g, err = atlas.IngestFile(*topo)
	} else {
		var tg *topology.Graph
		if tg, err = topology.GenerateDefault(*n, *seed); err == nil {
			g, err = atlas.FromTopology(tg)
		}
	}
	if err != nil {
		return e.fail(err)
	}

	logger := log.New(e.stderr, "", log.LstdFlags)
	cfg := serve.Config{
		Graph:       g,
		Scenario:    kind,
		Dests:       *dests,
		Seed:        *seed,
		Workers:     *workers,
		Repeat:      *repeat,
		Interval:    time.Duration(float64(time.Second) / *rate),
		Logf:        logger.Printf,
		TraceDir:    *traceDir,
		TraceSample: *traceN,
		Pprof:       *pprofOn,
		ProvCap:     *provCap,
	}
	if *slo > 0 {
		cfg.ReadSLO = time.Duration(*slo * float64(time.Millisecond))
	}
	if !*replay {
		// Admin-only mode never cycles the script, so any scenario —
		// including non-repeatable ones — is servable.
		cfg.Repeat = 1
	}
	s, err := serve.New(cfg)
	if err != nil {
		return e.fail(err)
	}
	bound, err := s.Start(*addr)
	if err != nil {
		return e.fail(err)
	}
	drain := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}

	ctx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	replayErr := make(chan error, 1)
	if *replay {
		go func() { replayErr <- s.Run(ctx) }()
	}

	if *swarm > 0 {
		rep, err := serve.RunSwarm(ctx, serve.SwarmOptions{
			BaseURL:  "http://" + bound,
			Readers:  *swarm,
			Duration: *duration,
			Seed:     *seed,
		})
		cancel()
		drain()
		if err != nil {
			return e.fail(err)
		}
		if *jsonOut {
			enc := json.NewEncoder(e.stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return e.fail(err)
			}
		} else {
			rep.Print(e.stdout)
		}
		if !rep.CountersMonotonic {
			fmt.Fprintf(e.stderr, "stamp serve: counters regressed between scrapes: %v\n", rep.NonMonotonic)
			return ExitFailure
		}
		if *slo > 0 && rep.ReadP99Ms > *slo {
			fmt.Fprintf(e.stderr, "stamp serve: read p99 %.3f ms exceeds the %.3f ms SLO\n", rep.ReadP99Ms, *slo)
			return ExitFailure
		}
		return ExitOK
	}

	// Service mode: run until Ctrl-C / SIGTERM, then drain in-flight
	// requests. A finite replay that completes keeps serving reads; a
	// replay error tears the service down (a replay event an admin
	// request already applied is skipped, not an error).
	for {
		select {
		case <-e.ctx.Done():
			logger.Printf("shutting down")
			drain()
			return ExitOK
		case err := <-replayErr:
			if err != nil && ctx.Err() == nil {
				drain()
				return e.fail(err)
			}
			if err == nil {
				logger.Printf("replay complete; still serving reads (Ctrl-C to exit)")
			}
		}
	}
}
