// Package cli is the implementation behind cmd/stamp (and, for one
// deprecation release, the legacy single-purpose binaries): subcommand
// dispatch, one shared flag/JSON/progress layer, and unified exit codes.
//
// Exit codes are the operator contract, identical across every
// subcommand:
//
//	0  success
//	1  runtime failure, including any sim-vs-live divergence
//	2  usage error (unknown subcommand/experiment/flag, or a request lab
//	   refuses as meaningless, like the steering arm outside steer runs)
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"stamp/internal/lab"
)

// Exit codes shared by every subcommand.
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
)

// SignalContext returns a context canceled on SIGINT/SIGTERM for the
// cmd mains. After the first signal fires, default signal handling is
// restored, so a second Ctrl-C always kills the process — even if some
// backend is slow to observe the cancellation.
func SignalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx
}

// env carries the process plumbing through subcommands, so tests drive
// the full CLI — flags to exit code — in-process.
type env struct {
	ctx            context.Context
	stdout, stderr io.Writer
}

// Main dispatches the stamp subcommands and returns the process exit
// code. ctx cancellation (Ctrl-C in cmd/stamp) interrupts in-flight
// experiment trials.
func Main(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	e := env{ctx: ctx, stdout: stdout, stderr: stderr}
	if len(argv) == 0 {
		usage(stderr)
		return ExitUsage
	}
	cmd, rest := argv[0], argv[1:]
	switch cmd {
	case "run":
		return e.cmdRun(rest)
	case "list":
		return e.cmdList(rest)
	case "lab":
		return e.cmdLab(rest)
	case "flood":
		return e.cmdFlood(rest)
	case "atlas":
		return e.cmdAtlas(rest)
	case "steer":
		return e.cmdSteer(rest)
	case "topo":
		return e.cmdTopo(rest)
	case "asrel":
		return e.cmdAsrel(rest)
	case "daemon":
		return e.cmdDaemon(rest)
	case "serve":
		return e.cmdServe(rest)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return ExitOK
	}
	fmt.Fprintf(stderr, "stamp: unknown subcommand %q\n\n", cmd)
	usage(stderr)
	return ExitUsage
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: stamp <subcommand> [flags]

subcommands:
  run <experiment>  run a registered experiment (stamp list prints them)
  list              list the experiment registry
  lab               live-emulation convergence + differential validation
                    (sugar for: run emu-converge -backend emu)
  flood             packet-level loss workload driver
                    (sugar for: run loss)
  atlas             internet-scale convergence on the flat CSR engine
                    (sugar for: run atlas-converge; -loss for atlas-loss)
  steer             four-arm latency steering grid: BGP / R-BGP / locked
                    STAMP / STAMP-steer (sugar for: run steer-latency;
                    -loss for steer-loss)
  topo              generate a synthetic AS topology (CAIDA AS-rel format),
                    or print -stats for any graph (-in loads a snapshot)
  asrel             infer AS relationships from AS paths (Gao's algorithm)
  daemon            run one live STAMP routing process (one color) over TCP
  serve             always-on service mode: converge an atlas fixpoint, apply
                    replayed/admin events, serve /metrics, /events, /state
  help              this text

exit codes: 0 success, 1 failure or sim-vs-live divergence, 2 usage.
`)
}

// fail prints a runtime error in the canonical form; a request lab
// refuses as meaningless is a usage error.
func (e env) fail(err error) int {
	// Cancellation is the operator's own Ctrl-C, not a failure worth a
	// stack of wrapped context noise.
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(e.stderr, "stamp: interrupted")
		return ExitFailure
	}
	fmt.Fprintln(e.stderr, "stamp:", err)
	if errors.Is(err, lab.ErrUsage) {
		return ExitUsage
	}
	return ExitFailure
}

// flagSet builds a subcommand flag set that reports usage errors on
// e.stderr without exiting the process.
func (e env) flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(e.stderr)
	return fs
}

// parse runs fs.Parse and maps the outcome onto the exit-code contract:
// explicitly requested help (-h/--help) is success, a malformed flag is
// a usage error. done is false when parsing succeeded and the
// subcommand should proceed.
func parse(fs *flag.FlagSet, args []string) (code int, done bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return ExitOK, false
	case errors.Is(err, flag.ErrHelp):
		return ExitOK, true
	default:
		return ExitUsage, true
	}
}

// emit renders one lab result — the JSON envelope or its text form —
// and maps divergences onto the exit code.
func (e env) emit(res *lab.Result, jsonOut bool) int {
	if jsonOut {
		enc := json.NewEncoder(e.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return e.fail(err)
		}
	} else {
		res.Print(e.stdout)
	}
	if res.Divergences > 0 {
		fmt.Fprintf(e.stderr, "stamp: %d sim-vs-live divergences\n", res.Divergences)
		return ExitFailure
	}
	return ExitOK
}

// progressFn returns a shard-progress reporter on stderr, or nil.
func (e env) progressFn(enabled bool) func(done, total int) {
	if !enabled {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(e.stderr, "\r%d/%d shards", done, total)
		if done == total {
			fmt.Fprintln(e.stderr)
		}
	}
}

// parseSeeds parses a comma-separated seed list.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad topo seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no topology seeds given")
	}
	return out, nil
}

// splitCSV parses a comma-separated name list ("" and "all" = nil).
func splitCSV(s string) []string {
	if s == "" || s == "all" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
